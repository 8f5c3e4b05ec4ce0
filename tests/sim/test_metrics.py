"""Tests for the metric primitives (counters, histograms, registry)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import metrics as metrics_mod
from repro.sim.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.increment()
        c.increment(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)


class TestHistogramExact:
    def test_empty_defaults(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.minimum == 0.0
        assert h.maximum == 0.0
        assert h.percentile(99.0) == 0.0

    def test_aggregates(self):
        h = Histogram()
        for v in [3.0, 1.0, 2.0]:
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(2.0)
        assert h.minimum == 1.0
        assert h.maximum == 3.0

    def test_percentile_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50.0) == 50.0
        assert h.percentile(95.0) == 95.0
        assert h.percentile(99.0) == 99.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 100.0

    def test_percentile_range_check(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101.0)

    def test_summary_keys_and_values(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s == {
            "count": 100,
            "mean": pytest.approx(50.5),
            "min": 1.0,
            "max": 100.0,
            "p50": 50.0,
            "p95": 95.0,
            "p99": 99.0,
            "p999": 100.0,
        }

    def test_quantile_general(self):
        h = Histogram()
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.quantile(0.5) == h.percentile(50.0)
        assert h.quantile(0.999) == h.percentile(99.9)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 1000.0

    def test_quantile_range_check(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_quantile_empty(self):
        assert Histogram().quantile(0.5) == 0.0


class TestHistogramReservoir:
    def test_storage_is_bounded(self):
        h = Histogram(reservoir_size=64)
        for v in range(10_000):
            h.observe(float(v))
        assert len(h.values) == 64
        assert h.count == 10_000

    def test_exact_aggregates_survive_eviction(self):
        h = Histogram(reservoir_size=8)
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.count == 1000
        assert h.mean == pytest.approx(500.5)
        assert h.minimum == 1.0
        assert h.maximum == 1000.0

    def test_percentiles_approximate_the_distribution(self):
        h = Histogram(reservoir_size=2000, rng=random.Random(7))
        for v in range(100_000):
            h.observe(float(v))
        # nearest-rank over a 2000-point uniform reservoir: generous bands
        assert h.percentile(50.0) == pytest.approx(50_000, rel=0.1)
        assert h.percentile(99.0) == pytest.approx(99_000, rel=0.05)

    def test_deterministic_default_rng(self):
        def fill():
            h = Histogram(reservoir_size=16)
            for v in range(500):
                h.observe(float(v))
            return h.values

        assert fill() == fill()

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Histogram(reservoir_size=0)


class EagerHistogram:
    """The fold's reference: every observation applied on arrival, as
    ``Histogram.observe`` did before it deferred to a pending list."""

    def __init__(self, reservoir_size=None):
        self.size = reservoir_size
        self.rng = random.Random(0)
        self.values: list[float] = []
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.size is None or len(self.values) < self.size:
            self.values.append(value)
        else:
            j = self.rng.randrange(self.count)
            if j < self.size:
                self.values[j] = value

    def reads(self, q: float) -> dict:
        """What every read of a ``Histogram`` returns, from this state."""
        ordered = sorted(self.values)
        count = self.count

        def rank(p):
            return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1] if ordered else 0.0

        mean = self.sum / count if count else 0.0
        low, high = (self.min, self.max) if count else (0.0, 0.0)
        return {
            "count": count,
            "mean": mean,
            "minimum": low,
            "maximum": high,
            "values": list(self.values),
            "percentile": rank(q),
            "quantile": rank(q / 100.0 * 100.0),
            "summary": {
                "count": count, "mean": mean, "min": low, "max": high,
                "p50": rank(50.0), "p95": rank(95.0), "p99": rank(99.0), "p999": rank(99.9),
            },
        }


def histogram_reads(h: Histogram, q: float) -> dict:
    return {
        "count": h.count,
        "mean": h.mean,
        "minimum": h.minimum,
        "maximum": h.maximum,
        "values": h.values,
        "percentile": h.percentile(q),
        "quantile": h.quantile(q / 100.0),
        "summary": h.summary(),
    }


def bits(reads):
    """Floats by their bits (``-0.0`` is not ``0.0``, a NaN equals itself)."""
    if isinstance(reads, float):
        return reads.hex()
    if isinstance(reads, dict):
        return {k: bits(v) for k, v in reads.items()}
    if isinstance(reads, list):
        return [bits(v) for v in reads]
    return reads


READS = ("count", "mean", "minimum", "maximum", "values", "percentile", "quantile", "summary")


class TestHistogramFold:
    """Observations wait in a bounded pending list and are folded in
    order; every read must see what eager observation gives."""

    @settings(max_examples=150, deadline=None)
    @given(
        reservoir=st.sampled_from([None, 1, 2, 8, 64]),
        bound=st.integers(min_value=1, max_value=9),
        ops=st.lists(
            st.one_of(
                st.floats(),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                st.sampled_from(READS),
            ),
            max_size=300,
        ),
        q=st.sampled_from([0.0, 1.0, 33.3, 50.0, 95.0, 99.0, 99.9, 100.0]),
    )
    def test_every_read_equals_eager_observation(self, reservoir, bound, ops, q):
        # A small bound makes the observes cross it many times per example.
        Bounded = type("Bounded", (Histogram,), {"PENDING": bound})
        folded, eager = Bounded(reservoir_size=reservoir), EagerHistogram(reservoir)
        for op in ops:
            if isinstance(op, float):
                folded.observe(op)
                eager.observe(op)
                assert len(folded._pending) < bound
            else:
                assert bits(histogram_reads(folded, q)[op]) == bits(eager.reads(q)[op])
        assert bits(histogram_reads(folded, q)) == bits(eager.reads(q))
        assert folded._sum.hex() == eager.sum.hex()
        assert folded._rng.getstate() == eager.rng.getstate()

    def test_the_default_bound_folds_as_eager_observation(self):
        folded, eager = Histogram(reservoir_size=64), EagerHistogram(64)
        rng = random.Random(5)
        for i in range(3 * Histogram.PENDING + 17):
            value = rng.expovariate(1.0)
            folded.observe(value)
            eager.observe(value)
            if i == Histogram.PENDING + 100:
                assert folded.values == eager.values
        assert 0 < len(folded._pending) < Histogram.PENDING
        assert bits(histogram_reads(folded, 99.0)) == bits(eager.reads(99.0))
        assert folded._rng.getstate() == eager.rng.getstate()


class TestMetricsRegistry:
    def test_counters_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").increment(2)
        reg.counter("b").increment()
        assert reg.counters() == {"a": 2, "b": 1}

    def test_histogram_identity_and_config(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", reservoir_size=4)
        for v in range(100):
            h.observe(float(v))
        assert reg.histogram("lat") is h  # config applies on first use only
        assert len(reg.histogram("lat").values) == 4
        assert "lat" in reg.histograms()

    def test_looking_up_an_existing_counter_builds_no_counter(self, monkeypatch):
        reg = MetricsRegistry()
        counter = reg.counter("a")
        built = []

        class Counted(Counter):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(metrics_mod, "Counter", Counted)
        assert reg.counter("a") is counter
        assert built == []
        assert isinstance(reg.counter("b"), Counted)  # a miss still creates one
