"""Tests for the metric primitives (counters, histograms, registry)."""

from __future__ import annotations

import random

import pytest

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
