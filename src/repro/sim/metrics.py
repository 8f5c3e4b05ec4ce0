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
    """

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
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._reservoir_size is None or len(self._values) < self._reservoir_size:
            self._values.append(value)
        else:
            # Algorithm R: keep each of the first i observations with
            # probability reservoir_size / i.
            j = self._rng.randrange(self._count)
            if j < self._reservoir_size:
                self._values[j] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100), nearest-rank method.

        Exact in the default store-everything mode; estimated from the
        reservoir sample when ``reservoir_size`` bounds storage.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        return self._nearest_rank(sorted(self._values), q)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) -- ``quantile(0.999)`` is p999.

        The general accessor SLO checks want (any tail, not just the
        fixed p50/p95/p99 of :meth:`summary`); same nearest-rank method
        and reservoir caveats as :meth:`percentile`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
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
