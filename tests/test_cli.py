"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_each_subcommand(self):
        parser = build_parser()
        assert parser.parse_args(["estimate", "--n", "50"]).command == "estimate"
        assert parser.parse_args(["sample"]).command == "sample"
        assert parser.parse_args(["uniformity"]).command == "uniformity"
        assert parser.parse_args(["chord", "--m", "16"]).command == "chord"
        assert parser.parse_args(["serve", "--rate", "2.0"]).command == "serve"

    def test_sample_batch_flag(self):
        args = build_parser().parse_args(["sample", "--batch"])
        assert args.batch is True
        assert build_parser().parse_args(["sample"]).batch is False

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "9", "estimate"])
        assert args.seed == 9


class TestCommands:
    def test_estimate_reports_ratio(self, capsys):
        assert main(["--seed", "1", "estimate", "--n", "500"]) == 0
        out = capsys.readouterr().out
        assert "n_hat" in out
        assert "next-calls" in out

    def test_estimate_rejects_bad_n(self, capsys):
        assert main(["estimate", "--n", "0"]) == 2

    def test_estimate_median_mode(self, capsys):
        assert main(["--seed", "6", "estimate", "--n", "500", "--vantages", "3"]) == 0
        assert "n_hat" in capsys.readouterr().out

    def test_estimate_rejects_bad_vantages(self, capsys):
        assert main(["estimate", "--vantages", "0"]) == 2

    def test_sample_prints_each_draw(self, capsys):
        assert main(["--seed", "2", "sample", "--n", "200", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("sample ") == 3
        assert "lambda=" in out

    def test_sample_rejects_bad_args(self):
        assert main(["sample", "--n", "0"]) == 2
        assert main(["sample", "--samples", "0"]) == 2

    def test_uniformity_compares_samplers(self, capsys):
        assert main(["--seed", "3", "uniformity", "--n", "32", "--draws", "2000"]) == 0
        out = capsys.readouterr().out
        assert "king-saia" in out
        assert "naive h(U)" in out

    def test_uniformity_rejects_insufficient_draws(self):
        assert main(["uniformity", "--n", "100", "--draws", "10"]) == 2

    def test_chord_runs_pipeline(self, capsys):
        assert main(["--seed", "4", "chord", "--n", "24", "--m", "16",
                     "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "ring correct=True" in out
        assert "mean messages/sample" in out

    def test_chord_rejects_small_id_space(self):
        assert main(["chord", "--n", "100", "--m", "4"]) == 2

    def test_sample_batch_mode_reports_totals(self, capsys):
        assert main(["--seed", "2", "sample", "--n", "300", "--samples", "40",
                     "--batch"]) == 0
        out = capsys.readouterr().out
        assert "mode=batch" in out
        assert "batch totals:" in out
        assert "rounds" in out
        assert "... 30 more" in out  # only the first 10 draws are listed

    def test_sample_batch_mode_reproducible(self, capsys):
        main(["--seed", "8", "sample", "--n", "200", "--samples", "20", "--batch"])
        first = capsys.readouterr().out
        main(["--seed", "8", "sample", "--n", "200", "--samples", "20", "--batch"])
        assert first == capsys.readouterr().out

    def test_serve_reports_latency_and_shards(self, capsys):
        assert main(["--seed", "6", "serve", "--n", "300", "--rate", "1.0",
                     "--shards", "2", "--requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "completed 200" in out
        assert "queue_latency" in out and "service_latency" in out
        assert "shard 0:" in out and "shard 1:" in out

    def test_serve_scalar_dispatch_and_policy(self, capsys):
        assert main(["--seed", "6", "serve", "--n", "200", "--rate", "0.5",
                     "--requests", "60", "--dispatch", "scalar",
                     "--policy", "least-loaded", "--max-batch", "1"]) == 0
        assert "dispatch=scalar" in capsys.readouterr().out

    def test_serve_rejects_bad_args(self):
        assert main(["serve", "--n", "0"]) == 2
        assert main(["serve", "--rate", "0"]) == 2
        assert main(["serve", "--requests", "0"]) == 2
        assert main(["serve", "--substrate", "chord", "--n", "100000",
                     "--chord-m", "10"]) == 2

    def test_serve_reproducible_given_seed(self, capsys):
        argv = ["--seed", "11", "serve", "--n", "200", "--rate", "1.5",
                "--requests", "150", "--max-queue", "20"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert first == capsys.readouterr().out

    def test_reproducible_given_seed(self, capsys):
        main(["--seed", "5", "sample", "--n", "100", "--samples", "2"])
        first = capsys.readouterr().out
        main(["--seed", "5", "sample", "--n", "100", "--samples", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_scenario_list_names_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("static", "smoke", "moderate", "crash-heavy"):
            assert name in out

    def test_scenario_run_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "scenario.json"
        assert main(["scenario", "run", "--preset", "smoke",
                     "--requests", "40", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "ring ok" in out
        assert out_path.exists()

    def test_scenario_run_rejects_bad_overrides(self, capsys):
        assert main(["scenario", "run", "--preset", "smoke",
                     "--crash-fraction", "2.0"]) == 2

    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_list_names_fault_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "mass-failure" in out
        assert "partition-heal" in out

    def test_scenario_run_mass_failure(self, capsys, tmp_path):
        out_path = tmp_path / "faults.json"
        assert main(["scenario", "run", "--preset", "mass-failure",
                     "--n", "200", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert out_path.exists()

    def test_scenario_fault_preset_rejects_churn_flags(self, capsys):
        assert main(["scenario", "run", "--preset", "mass-failure",
                     "--n", "200", "--rate", "2.0"]) == 2

    def test_faults_list_names_injectors(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("mass-kill", "partition", "grey", "loss-burst"):
            assert name in out

    def test_faults_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])

    def test_bench_chord_batch_runs_and_writes(self, capsys, tmp_path):
        # The bench runs, writes its record, and every row's replay
        # identities hold.  Its wall-clock speedup floor is gated where
        # the bench runs alone (CI's "Chord lockstep smoke benchmark"
        # step and the nightly), not beside the rest of this suite: a
        # non-zero exit here may only be that floor.
        out_path = tmp_path / "BENCH_chord_batch.json"
        code = main(["bench", "chord-batch", "--quick",
                     "--sizes", "256", "--k", "120", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert "lockstep" in captured.out
        assert "static speedup" in captured.out + captured.err
        assert code == 0 or "below the 1.5x floor" in captured.err
        rows = json.loads(out_path.read_text())["results"]
        assert rows
        for row in rows:
            assert row["identical_peers"], row
            assert row["identical_messages"], row
            assert row["identical_hops"], row

    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])


class TestBackendSwitch:
    """The --backend substrate switch across subcommands."""

    def test_sample_on_kademlia_backend(self, capsys):
        assert main(["--seed", "3", "sample", "--n", "64",
                     "--samples", "2", "--backend", "kademlia"]) == 0
        out = capsys.readouterr().out
        assert "backend=kademlia" in out
        assert "sample 1:" in out

    def test_sample_on_chord_backend(self, capsys):
        assert main(["--seed", "3", "sample", "--n", "48",
                     "--samples", "2", "--backend", "chord"]) == 0
        assert "backend=chord" in capsys.readouterr().out

    def test_sample_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "--backend", "pastry"])

    def test_serve_accepts_backend_alias_for_substrate(self, capsys):
        assert main(["serve", "--backend", "kademlia", "--n", "32",
                     "--requests", "20", "--rate", "2.0",
                     "--kad-bits", "16", "--kad-k", "6"]) == 0
        assert "substrate=kademlia" in capsys.readouterr().out

    def test_scenario_run_with_kademlia_backend(self, capsys):
        assert main(["scenario", "run", "--preset", "smoke",
                     "--backend", "kademlia", "--requests", "30"]) == 0
        assert "ring ok" in capsys.readouterr().out

    def test_bench_backends_runs_and_writes(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_backends.json"
        assert main(["bench", "backends", "--quick", "--sizes", "128",
                     "--samples", "25", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "kademlia" in out and "chord" in out
        assert out_path.exists()
