"""The bench regression guard: metric extraction, tolerance, verdicts."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

_SCRIPT = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def chord_record(speedup, identical=True, phase="static", n=1000):
    return {
        "benchmark": "chord_batch",
        "results": [
            {
                "n": n,
                "phase": phase,
                "speedup": speedup,
                "identical_peers": identical,
                "identical_messages": identical,
                "identical_hops": identical,
            }
        ],
    }


class TestCompare:
    def test_within_tolerance_passes(self):
        rows = check_regression.compare(
            chord_record(4.0),
            chord_record(8.0),
            check_regression._metrics_chord_batch,
            tolerance=0.4,
        )
        speedups = [r for r in rows if r["metric"].endswith("speedup")]
        assert speedups and not any(r["regressed"] for r in speedups)

    def test_cliff_beyond_tolerance_is_flagged(self):
        rows = check_regression.compare(
            chord_record(2.0),
            chord_record(8.0),
            check_regression._metrics_chord_batch,
            tolerance=0.4,
        )
        assert any(r["regressed"] for r in rows if r["metric"].endswith("speedup"))

    def test_improvement_never_flags(self):
        rows = check_regression.compare(
            chord_record(50.0),
            chord_record(8.0),
            check_regression._metrics_chord_batch,
            tolerance=0.4,
        )
        assert not any(r["regressed"] for r in rows)

    def test_identity_flip_is_always_a_regression(self):
        rows = check_regression.compare(
            chord_record(100.0, identical=False),
            chord_record(8.0, identical=True),
            check_regression._metrics_chord_batch,
            tolerance=0.4,
        )
        flags = [r for r in rows if r["kind"] == "exact"]
        assert flags and all(r["regressed"] for r in flags)

    def test_service_quick_and_full_share_the_floor_ratio(self):
        def service_record(n, shard_counts, ratio):
            rows = []
            for shards in shard_counts:
                for dispatch, thr in (("batch", ratio), ("scalar", 1.0)):
                    rows.append({"n": n, "shards": shards, "dispatch": dispatch,
                                 "sustained_rps": 100.0, "sim_throughput": thr})
            return {"benchmark": "service_load", "dispatch_comparison": rows}

        rows = check_regression.compare(
            service_record(2000, [1, 2], 1.1),
            service_record(100000, [1, 4], 1.5),
            check_regression._metrics_service,
            tolerance=0.4,
        )
        assert [r["metric"] for r in rows] == ["shards=1/sim_throughput_ratio"]
        assert not rows[0]["regressed"]

    def test_disjoint_configurations_compare_nothing(self):
        rows = check_regression.compare(
            chord_record(4.0, n=1000),
            chord_record(8.0, n=100000),
            check_regression._metrics_chord_batch,
            tolerance=0.4,
        )
        assert rows == []

    def test_lower_is_better_direction(self):
        def make(inflation):
            return {
                "scenarios": [
                    {
                        "spec": {"name": "moderate"},
                        "ring_recovered": True,
                        "inflation": {"messages_per_sample": inflation},
                    }
                ]
            }

        rows = check_regression.compare(
            make(9.0), make(2.0), check_regression._metrics_churn, tolerance=0.4
        )
        assert any(r["regressed"] for r in rows)
        rows = check_regression.compare(
            make(2.1), make(2.0), check_regression._metrics_churn, tolerance=0.4
        )
        assert not any(r["regressed"] for r in rows)


class TestMainEndToEnd:
    def test_baseline_dir_comparison(self, tmp_path, capsys):
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        fresh.mkdir(), base.mkdir()
        (fresh / "BENCH_chord_batch.json").write_text(json.dumps(chord_record(6.0)))
        (base / "BENCH_chord_batch.json").write_text(json.dumps(chord_record(7.0)))
        rc = check_regression.main(
            [
                "--bench", "BENCH_chord_batch.json",
                "--fresh-dir", str(fresh),
                "--baseline-dir", str(base),
            ]
        )
        assert rc == 0
        assert "regression check passed" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        fresh.mkdir(), base.mkdir()
        (fresh / "BENCH_chord_batch.json").write_text(json.dumps(chord_record(1.0)))
        (base / "BENCH_chord_batch.json").write_text(json.dumps(chord_record(9.0)))
        rc = check_regression.main(
            [
                "--bench", "BENCH_chord_batch.json",
                "--fresh-dir", str(fresh),
                "--baseline-dir", str(base),
            ]
        )
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_fresh_artifacts_skip_by_default(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = check_regression.main(
            [
                "--bench", "BENCH_chord_batch.json",
                "--fresh-dir", str(empty),
                "--baseline-dir", str(empty),
            ]
        )
        assert rc == 0
        assert "nothing compared" in capsys.readouterr().out

    def test_missing_committed_baseline_fails(self, tmp_path, capsys):
        # an absent committed BENCH_*.json used to read as a pass; it is
        # a hole in the guard and must exit non-zero
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        fresh.mkdir(), base.mkdir()
        (fresh / "BENCH_chord_batch.json").write_text(json.dumps(chord_record(6.0)))
        rc = check_regression.main(
            [
                "--bench", "BENCH_chord_batch.json",
                "--fresh-dir", str(fresh),
                "--baseline-dir", str(base),
            ]
        )
        assert rc == 1
        assert "no committed baseline" in capsys.readouterr().err

    def test_strict_fails_on_missing_fresh_artifact(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = check_regression.main(
            [
                "--strict",
                "--bench", "BENCH_chord_batch.json",
                "--fresh-dir", str(empty),
                "--baseline-dir", str(empty),
            ]
        )
        assert rc == 1
        assert "no fresh output" in capsys.readouterr().err

    def test_run_survives_a_failing_bench(self, tmp_path, monkeypatch, capsys):
        # --run regenerates every bench; one that exits non-zero is an
        # error (exit 1), the others are still regenerated and compared,
        # and the temp dir is removed
        base = tmp_path / "base"
        base.mkdir()
        (base / "BENCH_chord_batch.json").write_text(json.dumps(chord_record(7.0)))
        out_dirs = []

        def fake_run(cmd, cwd):
            out = Path(cmd[cmd.index("--out") + 1])
            out_dirs.append(out.parent)
            if cmd[1].endswith("bench_service.py"):
                return subprocess.CompletedProcess(cmd, 1)
            out.write_text(json.dumps(chord_record(6.0)))
            return subprocess.CompletedProcess(cmd, 0)

        monkeypatch.setattr(check_regression.subprocess, "run", fake_run)
        rc = check_regression.main(
            [
                "--run",
                "--bench", "BENCH_service.json",
                "--bench", "BENCH_chord_batch.json",
                "--baseline-dir", str(base),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "BENCH_service.json: benchmarks/bench_service.py --quick exited" in captured.err
        assert "== BENCH_chord_batch.json" in captured.out
        assert len(out_dirs) == 2 and not out_dirs[0].exists()

    def test_strict_fails_on_disjoint_configurations(self, tmp_path, capsys):
        fresh, base = tmp_path / "fresh", tmp_path / "base"
        fresh.mkdir(), base.mkdir()
        (fresh / "BENCH_chord_batch.json").write_text(
            json.dumps(chord_record(6.0, n=1000))
        )
        (base / "BENCH_chord_batch.json").write_text(
            json.dumps(chord_record(6.0, n=100000))
        )
        rc = check_regression.main(
            [
                "--strict",
                "--bench", "BENCH_chord_batch.json",
                "--fresh-dir", str(fresh),
                "--baseline-dir", str(base),
            ]
        )
        assert rc == 1
        assert "no comparable metrics" in capsys.readouterr().err

    def test_committed_repo_artifacts_parse(self):
        # every committed baseline must stay extractable, else the CI
        # guard silently compares nothing
        root = check_regression.ROOT
        for name, extractor in check_regression.EXTRACTORS.items():
            path = root / name
            if not path.exists():
                continue
            metrics = extractor(json.loads(path.read_text()))
            assert metrics, f"no metrics extracted from {name}"

    def test_every_known_artifact_has_a_committed_baseline(self):
        # the PR guard errors on fresh-without-baseline, so a bench
        # registered here must ship its baseline in the same change
        root = check_regression.ROOT
        for name in check_regression.EXTRACTORS:
            assert (root / name).exists(), f"{name} baseline not committed"


class TestBackendsExtractor:
    def test_metrics_per_backend_size_and_phase(self):
        record = {
            "results": [
                {
                    "backend": "chord", "n": 10000, "phase": "static",
                    "sustained_rps": 140.0, "msgs_per_sample": 4500.0,
                    "all_sampled_live": True,
                },
                {
                    "backend": "kademlia", "n": 10000, "phase": "churn",
                    "sustained_rps": 28.0, "msgs_per_sample": 4600.0,
                    "all_sampled_live": True,
                },
            ]
        }
        metrics = check_regression._metrics_backends(record)
        assert metrics["chord/n=10000/static/sustained_rps"] == (140.0, "higher-is-better")
        assert metrics["kademlia/n=10000/churn/msgs_per_sample"] == (4600.0, "lower-is-better")
        assert metrics["chord/n=10000/static/all_sampled_live"] == (True, "exact")
        # churn-phase dead draws are documented-acceptable (stale_trials
        # records them), so no exact invariant is registered there
        assert "kademlia/n=10000/churn/all_sampled_live" not in metrics
