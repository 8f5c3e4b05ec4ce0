"""Lightweight metric primitives for simulation components."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def increment(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("counters only go up")
        self.value += by


class Histogram:
    """Streaming summary of observed values (mean, extremes, percentiles).

    By default every observation is stored, which is exact and fine for
    the per-run scales used here (thousands to low millions of points).
    Long-lived consumers -- the sampling service observes one latency per
    request, indefinitely -- pass ``reservoir_size`` to bound memory:
    count, mean, min and max stay exact (tracked as running aggregates)
    while percentiles come from a uniform reservoir sample of that size
    (Vitter's Algorithm R).  Reservoir replacement randomness defaults to
    a fixed-seed stream so metric summaries are reproducible run-to-run;
    pass ``rng`` to tie it to an experiment's seed registry instead.

    :meth:`observe` only appends to a pending list of at most
    ``PENDING`` values.  The list is folded into the aggregates and the
    reservoir (:meth:`_fold`), in observation order, when it fills and
    before every read, so every count, mean, extreme, percentile and
    reservoir value -- and the state of ``rng`` -- is what observing
    each value on arrival would give at that read.  ``rng`` is therefore
    drawn from at a fold, not at each observation: pass a stream that
    nothing else reads.
    """

    #: Most observations held unfolded.
    PENDING = 4096

    def __init__(
        self,
        reservoir_size: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if reservoir_size is not None and reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self._reservoir_size = reservoir_size
        self._rng = rng if rng is not None else random.Random(0)
        self._values: list[float] = []
        self._pending: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= self.PENDING:
            self._fold()

    def _fold(self) -> None:
        """Apply the pending observations, in order, as :meth:`observe`
        once applied each on arrival.

        The sum is added one value at a time (``sum()`` compensates float
        sums from CPython 3.12 on, which would change the mean's bits),
        and the extremes move only on a strict comparison, as a NaN
        never moves them.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        total, low, high = self._sum, self._min, self._max
        for value in pending:
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        self._sum, self._min, self._max = total, low, high
        values = self._values
        size = self._reservoir_size
        if size is None:
            values.extend(pending)
            self._count += len(pending)
            return
        room = max(size - len(values), 0)
        values.extend(pending[:room])
        count = self._count + min(room, len(pending))
        # Algorithm R: keep each of the first i observations with
        # probability reservoir_size / i.
        randrange = self._rng.randrange
        for value in pending[room:]:
            count += 1
            j = randrange(count)
            if j < size:
                values[j] = value
        self._count = count

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def mean(self) -> float:
        self._fold()
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        self._fold()
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        self._fold()
        return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100), nearest-rank method.

        Exact in the default store-everything mode; estimated from the
        reservoir sample when ``reservoir_size`` bounds storage.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        self._fold()
        return self._nearest_rank(sorted(self._values), q)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) -- ``quantile(0.999)`` is p999.

        The general accessor SLO checks want (any tail, not just the
        fixed p50/p95/p99 of :meth:`summary`); same nearest-rank method
        and reservoir caveats as :meth:`percentile`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        self._fold()
        return self._nearest_rank(sorted(self._values), q * 100.0)

    @staticmethod
    def _nearest_rank(ordered: list[float], q: float) -> float:
        if not ordered:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        """Count/mean/min/max plus the p50/p95/p99/p999 tail, as one dict.

        Sorts the stored values once and indexes all four percentiles
        from that one ordering.
        """
        self._fold()
        ordered = sorted(self._values)
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self._nearest_rank(ordered, 50.0),
            "p95": self._nearest_rank(ordered, 95.0),
            "p99": self._nearest_rank(ordered, 99.0),
            "p999": self._nearest_rank(ordered, 99.9),
        }

    @property
    def values(self) -> list[float]:
        """The stored observations (the reservoir sample when bounded)."""
        self._fold()
        return list(self._values)


class MetricsRegistry:
    """Named counters and histograms shared across simulation components."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def histogram(
        self,
        name: str,
        reservoir_size: int | None = None,
        rng: random.Random | None = None,
    ) -> Histogram:
        """The named histogram, created on first use.

        ``reservoir_size``/``rng`` configure the histogram only at
        creation; later lookups return the existing instance unchanged.
        """
        if name not in self._histograms:
            self._histograms[name] = Histogram(reservoir_size=reservoir_size, rng=rng)
        return self._histograms[name]

    def counters(self) -> dict[str, int]:
        """Snapshot of all counter values."""
        return {name: c.value for name, c in self._counters.items()}

    def histograms(self) -> dict[str, Histogram]:
        """All histograms by name (live references, not copies)."""
        return dict(self._histograms)
