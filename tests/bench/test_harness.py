"""Tests for the benchmark harness utilities."""

from __future__ import annotations

import math

import pytest

from repro.bench.harness import (
    Table,
    fmt,
    geometric_mean,
    peak_rss_kb,
    sweep,
    time_call,
    time_call_rss,
    write_bench_json,
)
from repro.bench.workloads import make_ideal_dht, make_sampler, selection_counts


class TestFmt:
    def test_bool(self):
        assert fmt(True) == "yes"
        assert fmt(False) == "no"

    def test_int(self):
        assert fmt(42) == "42"

    def test_float_compact(self):
        assert fmt(0.5) == "0.5"
        assert fmt(0.0) == "0"

    def test_float_scientific_extremes(self):
        assert "e" in fmt(1e-9)
        assert "e" in fmt(1e7)

    def test_special_floats(self):
        assert fmt(math.inf) == "inf"
        assert fmt(math.nan) == "nan"

    def test_string_passthrough(self):
        assert fmt("abc") == "abc"


class TestTable:
    def test_row_arity_checked(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_render_contains_everything(self):
        t = Table("My Experiment", ["n", "value"])
        t.add_row(10, 0.5)
        t.add_row(20, 0.25)
        t.note("paper: Theta(1)")
        text = t.render()
        assert "My Experiment" in text
        assert "0.25" in text
        assert "paper: Theta(1)" in text

    def test_columns_aligned(self):
        t = Table("t", ["col", "x"])
        t.add_row("short", 1)
        t.add_row("a-much-longer-cell", 2)
        lines = t.render().splitlines()
        # All data lines share the position of the second column.
        data = lines[1:2] + lines[3:5]
        positions = {line.rstrip().rfind(" ") for line in data}
        assert len(positions) == 1


class TestMathHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_sweep_preserves_order(self):
        assert sweep([1, 2, 3], lambda x: x * x) == [1, 4, 9]


class TestTiming:
    def test_time_call_runs_fn_and_returns_seconds(self):
        calls = []
        elapsed = time_call(lambda: calls.append(1), repeat=3)
        assert len(calls) == 3
        assert elapsed >= 0.0

    def test_time_call_validates_repeat(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeat=0)


class TestRss:
    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_kb()
        assert rss is None or (isinstance(rss, int) and rss > 0)

    def test_time_call_rss_pairs_timing_with_memory(self):
        # The peak RSS is a high-water mark that can rise at any moment,
        # so the reading must lie between one taken before and one after.
        calls = []
        before = peak_rss_kb()
        elapsed, rss = time_call_rss(lambda: calls.append(1), repeat=2)
        after = peak_rss_kb()
        assert len(calls) == 2
        assert elapsed >= 0.0
        assert rss is None if before is None else before <= rss <= after


class TestBenchJson:
    def test_round_trip(self, tmp_path):
        import json

        record = {"benchmark": "test", "results": [{"n": 10, "sps": 123.5}]}
        before = peak_rss_kb()
        path = write_bench_json(tmp_path / "sub" / "BENCH_test.json", record)
        after = peak_rss_kb()
        assert path.exists()
        loaded = json.loads(path.read_text())
        rss = loaded.pop("peak_rss_kb")  # stamped on every record
        # A high-water mark read while writing: between the readings
        # taken just before and just after the write.
        assert rss is None if before is None else before <= rss <= after
        assert loaded == record
        assert "peak_rss_kb" not in record  # the caller's dict is untouched

    def test_explicit_rss_wins(self, tmp_path):
        import json

        path = write_bench_json(tmp_path / "b.json", {"peak_rss_kb": 123})
        assert json.loads(path.read_text())["peak_rss_kb"] == 123

    def test_output_ends_with_newline(self, tmp_path):
        path = write_bench_json(tmp_path / "b.json", {"a": 1})
        assert path.read_text().endswith("\n")


class TestWorkloads:
    def test_make_ideal_dht_deterministic(self):
        a = make_ideal_dht(100, seed=5)
        b = make_ideal_dht(100, seed=5)
        assert list(a.circle.points) == list(b.circle.points)

    def test_make_ideal_dht_seed_sensitivity(self):
        a = make_ideal_dht(100, seed=5)
        b = make_ideal_dht(100, seed=6)
        assert list(a.circle.points) != list(b.circle.points)

    def test_make_sampler_and_counts(self):
        dht = make_ideal_dht(64, seed=7)
        sampler = make_sampler(dht, seed=7, n_hat=64.0)
        counts = selection_counts(sampler, 200)
        assert sum(counts.values()) == 200
        assert set(counts) <= set(range(64))
