"""Regression guard: compare fresh bench output against committed baselines.

Every benchmark writes a ``BENCH_*.json`` artifact at the repo root; CI
regenerates them in ``--quick`` mode on every push.  This script diffs
the fresh records against the committed baselines (``git show
<ref>:BENCH_*.json`` by default) and flags perf metrics that fell beyond
a tolerance, plus any exact invariant (scalar/batch identity flags, ring
recovery) that flipped from healthy to broken.

Quick-mode output is compared against full-mode baselines, so metrics
are keyed only by configuration axes both modes share (ring size,
dispatch mode, scenario name -- never batch counts or request totals)
and the default tolerance is deliberately loose: the guard exists to
catch a 3x cliff from a bad refactor, not 10% noise.  It is wired into
PR CI as a *non-blocking* step (``continue-on-error``): a red run is a
prompt to look at the numbers, not a merge gate.  The nightly workflow
runs it *blocking* with ``--strict``.

A fresh artifact with **no committed baseline always fails** (exit 1):
an uncommitted ``BENCH_*.json`` is a hole in the safety net, not a
pass.  ``--strict`` additionally fails on missing fresh artifacts and
on empty comparisons, so silent coverage loss cannot slip through the
nightly.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # worktree vs HEAD
    PYTHONPATH=src python benchmarks/check_regression.py --run      # regenerate quick first
    PYTHONPATH=src python benchmarks/check_regression.py --baseline-dir /path/to/baselines
    PYTHONPATH=src python benchmarks/check_regression.py --strict   # the nightly's mode
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: How each fresh quick benchmark is regenerated under ``--run``.
QUICK_COMMANDS = {
    "BENCH_throughput.json": ["benchmarks/bench_e17_throughput.py", "--quick"],
    "BENCH_chord_batch.json": ["benchmarks/bench_chord_batch.py", "--quick"],
    "BENCH_service.json": ["benchmarks/bench_service.py", "--quick"],
    "BENCH_churn.json": ["benchmarks/bench_churn.py", "--quick"],
    "BENCH_backends.json": ["benchmarks/bench_backends.py", "--quick"],
    "BENCH_faults.json": ["benchmarks/bench_faults.py", "--quick"],
    "BENCH_obs.json": ["benchmarks/bench_obs.py", "--quick"],
    "BENCH_adversary.json": ["benchmarks/bench_adversary.py", "--quick"],
    "BENCH_async.json": ["benchmarks/bench_async.py", "--quick"],
    "BENCH_scale.json": ["benchmarks/bench_scale.py", "--quick"],
}

#: Metric direction markers.
HIGHER, LOWER, EXACT = "higher-is-better", "lower-is-better", "exact"

#: Per-artifact tolerance overrides (ratio floor for perf metrics).
#: The scale curves are the scaling contract itself: memory/node is
#: deterministic and lookups/sec is measured on dedicated full-mode
#: decades, so the gate holds both to within 10% instead of the loose
#: quick-vs-full default.
TOLERANCES = {
    "BENCH_scale.json": 0.9,
}

#: Peak-RSS ceilings per artifact, in KiB, enforced under ``--strict``
#: (the nightly).  Benches have stamped ``peak_rss_kb`` into their
#: records since the observability PR; a fresh record over its ceiling
#: fails the nightly even if every relative metric held, so a structure
#: that suddenly holds the whole workload resident cannot ride in under
#: the ratio gates.  Records without the stamp (pre-stamp baselines,
#: non-POSIX hosts) are skipped.  Ceilings are sized ~3x the observed
#: full-mode footprint to absorb allocator noise, except scale, whose
#: 1e7 build-only decade legitimately peaks above 5 GiB.
RSS_CEILINGS_KB = {
    "BENCH_throughput.json": 2_000_000,
    "BENCH_chord_batch.json": 2_000_000,
    "BENCH_service.json": 2_000_000,
    "BENCH_churn.json": 2_000_000,
    "BENCH_backends.json": 4_000_000,
    "BENCH_faults.json": 2_000_000,
    "BENCH_obs.json": 2_000_000,
    "BENCH_adversary.json": 2_000_000,
    "BENCH_async.json": 2_000_000,
    "BENCH_scale.json": 16_000_000,
}


def _metrics_throughput(record: dict) -> dict:
    out = {}
    for row in record.get("results", []):
        out[f"n={row['n']}/speedup"] = (row["speedup"], HIGHER)
    return out


def _metrics_chord_batch(record: dict) -> dict:
    out = {}
    for row in record.get("results", []):
        key = f"n={row['n']}/{row['phase']}"
        out[f"{key}/speedup"] = (row["speedup"], HIGHER)
        for flag in ("identical_peers", "identical_messages", "identical_hops"):
            out[f"{key}/{flag}"] = (bool(row.get(flag)), EXACT)
    return out


def _metrics_service(record: dict) -> dict:
    out = {}
    for row in record.get("dispatch_comparison", []):
        key = f"n={row['n']}/shards={row['shards']}/{row['dispatch']}"
        out[f"{key}/sustained_rps"] = (row["sustained_rps"], HIGHER)
    return out


def _metrics_churn(record: dict) -> dict:
    out = {}
    for scenario in record.get("scenarios", []):
        name = scenario.get("spec", {}).get("name", "?")
        out[f"{name}/ring_recovered"] = (bool(scenario.get("ring_recovered")), EXACT)
        inflation = (scenario.get("inflation") or {}).get("messages_per_sample")
        if inflation is not None:
            out[f"{name}/msgs_per_sample_inflation"] = (inflation, LOWER)
    return out


def _metrics_backends(record: dict) -> dict:
    out = {}
    for row in record.get("results", []):
        key = f"{row['backend']}/n={row['n']}/{row['phase']}"
        out[f"{key}/sustained_rps"] = (row["sustained_rps"], HIGHER)
        out[f"{key}/msgs_per_sample"] = (row["msgs_per_sample"], LOWER)
        if row["phase"] == "static":
            # Dead draws are an invariant violation only on a static
            # overlay; the churn phase tolerates them by design (that is
            # what its stale_trials column records).
            out[f"{key}/all_sampled_live"] = (bool(row.get("all_sampled_live")), EXACT)
    return out


def _metrics_faults(record: dict) -> dict:
    # Keyed by fault/backend and by kill-fraction/policy/backend -- the
    # axes quick and full mode share (never by n or probe count, which
    # differ between modes; recovery rounds are budget-normalized
    # enough at both scales for the loose tolerance to hold).
    out = {}
    for row in record.get("headline", []):
        spec = row.get("spec", {})
        key = f"{spec.get('fault', '?')}/{spec.get('backend', '?')}"
        out[f"{key}/recovered"] = (bool(row.get("recovered")), EXACT)
        out[f"{key}/post_error_rate"] = (row.get("phases", {})
                                         .get("post", {})
                                         .get("error_rate", 1.0), LOWER)
    for row in record.get("grid", []):
        spec = row.get("spec", {})
        key = (f"kill={spec.get('kill_fraction', '?')}"
               f"/{row.get('policy', '?')}/{spec.get('backend', '?')}")
        out[f"{key}/recovered"] = (bool(row.get("recovered")), EXACT)
        inflation = row.get("msgs_inflation_outage")
        if inflation is not None:
            out[f"{key}/msgs_inflation_outage"] = (inflation, LOWER)
    return out


def _metrics_obs(record: dict) -> dict:
    # Keyed by backend and sampling mode only (shared across quick and
    # full).  The invariant flags are the teeth: bit-identity of the
    # traced/untraced/bare records, the tracing-off wall-clock bound
    # (asserted in-run against the record's own off_bound, so quick's
    # looser bound never masks a full-mode violation), and critical-path
    # coverage.  The raw ratios ride along as loosely-guarded perf
    # metrics.
    out = {}
    floor = record.get("reconstruction_floor", 0.99)
    bound = record.get("off_bound")
    for backend, run in sorted(record.get("backends", {}).items()):
        out[f"{backend}/identical"] = (bool(run.get("identical")), EXACT)
        overhead_off = run.get("overhead_off")
        if overhead_off is not None and bound is not None:
            out[f"{backend}/off_within_bound"] = (overhead_off <= bound, EXACT)
            out[f"{backend}/overhead_off"] = (overhead_off, LOWER)
        reconstructed = (run.get("critical_path") or {}).get("min_reconstructed")
        if reconstructed is not None:
            out[f"{backend}/critical_path_ok"] = (reconstructed >= floor, EXACT)
        for mode, ratio in sorted((run.get("overhead_vs_off") or {}).items()):
            out[f"{backend}/{mode}/overhead_vs_off"] = (ratio, LOWER)
    return out


def _metrics_adversary(record: dict) -> dict:
    # Keyed by backend and by (fraction, strategy) sweep cell -- the axes
    # quick and full mode share (quick runs a subset, so only overlapping
    # cells compare).  The invariants are the teeth: the fraction-0 run
    # must stay bit-identical to the bare pre-adversary transport, the
    # statistical harness must keep rejecting its planted-bug sampler and
    # accepting the honest one, and adversarial runs must keep draining.
    out = {}
    self_test = record.get("harness_self_test", {})
    if self_test:
        out["self_test/honest_accepted"] = (
            bool(self_test.get("honest_accepted")), EXACT)
        out["self_test/biased_rejected"] = (
            bool(self_test.get("biased_rejected")), EXACT)
    for backend, run in sorted(record.get("backends", {}).items()):
        zero = run.get("zero_overhead", {})
        out[f"{backend}/zero_overhead_identical"] = (
            bool(zero.get("identical")), EXACT)
        for cell in run.get("sweep", []):
            key = f"{backend}/f={cell['fraction']:g}/{cell['strategy']}"
            out[f"{key}/drained"] = (
                cell.get("failed", 1) <= cell.get("completed", 0), EXACT)
            rate = cell.get("capture_rate")
            if rate is not None and cell["fraction"] > 0:
                # adversarial capture collapsing to zero means the lie
                # surface came unwired, not that the repo got better
                out[f"{key}/capture_rate"] = (rate, HIGHER)
    return out


def _metrics_async(record: dict) -> dict:
    # Keyed by backend for the scale-insensitive invariants (recovery to
    # oracle-perfect lookups, hop-RTT ceiling -- the latency model is the
    # same at every n, so quick vs full compares fairly); the sim-clock
    # recovery time grows with overlay size, so it is additionally keyed
    # by n and only compares between runs of the same scale.
    out = {}
    for row in record.get("results", []):
        spec = row.get("spec", {})
        backend = spec.get("backend", "?")
        out[f"{backend}/recovered"] = (bool(row.get("recovered")), EXACT)
        out[f"{backend}/post_error_rate"] = (row.get("phases", {})
                                             .get("post", {})
                                             .get("error_rate", 1.0), LOWER)
        hop = row.get("hop_latency") or {}
        if hop.get("p99") is not None:
            out[f"{backend}/hop_p99"] = (hop["p99"], LOWER)
        if row.get("recovery_sim_time") is not None:
            out[f"{backend}/n={spec.get('n', '?')}/recovery_sim_time"] = (
                row["recovery_sim_time"], LOWER)
    return out


def _metrics_scale(record: dict) -> dict:
    # Keyed by backend and decade -- quick mode runs the n=1e5 decade
    # only, so the PR guard compares that shared row while the nightly
    # full run covers every decade.  bytes/node and lookups/sec are the
    # scaling contract (both gated at the tight scale tolerance); the
    # structural/oracle flags and the zero-full-rebuild churn invariant
    # are the teeth.
    out = {}
    for row in record.get("results", []):
        key = f"{row['backend']}/n={row['n']}"
        if row["phase"] == "build":
            out[f"{key}/bytes_per_node"] = (row["bytes_per_node"], LOWER)
            out[f"{key}/spot_check_ok"] = (bool(row.get("spot_check_ok")), EXACT)
        else:
            out[f"{key}/lookups_per_sec"] = (row["lookups_per_sec"], HIGHER)
            out[f"{key}/oracle_ok"] = (bool(row.get("oracle_ok")), EXACT)
    churn = record.get("churn") or {}
    if churn:
        out["churn/zero_full_rebuilds"] = (churn.get("full_rebuilds") == 0, EXACT)
        out["churn/incremental_equals_rebuild"] = (
            bool(churn.get("incremental_equals_rebuild")), EXACT)
        out["churn/soa_splice_equals_rebuild"] = (
            bool(churn.get("soa_splice_equals_rebuild")), EXACT)
    return out


EXTRACTORS = {
    "BENCH_throughput.json": _metrics_throughput,
    "BENCH_chord_batch.json": _metrics_chord_batch,
    "BENCH_service.json": _metrics_service,
    "BENCH_churn.json": _metrics_churn,
    "BENCH_backends.json": _metrics_backends,
    "BENCH_faults.json": _metrics_faults,
    "BENCH_obs.json": _metrics_obs,
    "BENCH_adversary.json": _metrics_adversary,
    "BENCH_async.json": _metrics_async,
    "BENCH_scale.json": _metrics_scale,
}


def _load_committed(name: str, ref: str, baseline_dir: Path | None) -> dict | None:
    if baseline_dir is not None:
        path = baseline_dir / name
        if not path.exists():
            return None
        return json.loads(path.read_text())
    proc = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:  # not committed yet (first run of a new bench)
        return None
    return json.loads(proc.stdout)


def compare(fresh: dict, committed: dict, extractor, tolerance: float) -> list[dict]:
    """Shared-key comparison: one verdict row per comparable metric."""
    fresh_metrics = extractor(fresh)
    committed_metrics = extractor(committed)
    rows = []
    for key in sorted(set(fresh_metrics) & set(committed_metrics)):
        new, kind = fresh_metrics[key]
        old, _ = committed_metrics[key]
        if kind == EXACT:
            # only a healthy->broken flip is a regression
            regressed = bool(old) and not bool(new)
        elif kind == HIGHER:
            regressed = old > 0 and new < old * tolerance
        else:  # LOWER
            regressed = old > 0 and new > old / tolerance
        rows.append(
            {"metric": key, "kind": kind, "committed": old, "fresh": new,
             "regressed": regressed}
        )
    return rows


def _fmt(value) -> str:
    return f"{value:.3g}" if isinstance(value, float) else str(value)


def _write_markdown(path: Path, summary, rss_lines, errors) -> None:
    """The comparison as one markdown document (the per-PR artifact)."""
    lines = ["# Benchmark regression summary", ""]
    for name, tolerance, rows in summary:
        regressed = sum(1 for r in rows if r["regressed"])
        verdict = f"**{regressed} regressed**" if regressed else "all ok"
        lines.append(f"## {name} — tolerance {tolerance:g}, {verdict}")
        lines.append("")
        lines.append("| metric | kind | committed | fresh | verdict |")
        lines.append("|---|---|---:|---:|---|")
        for row in rows:
            mark = "REGRESSED" if row["regressed"] else "ok"
            lines.append(
                f"| `{row['metric']}` | {row['kind']} | {_fmt(row['committed'])} "
                f"| {_fmt(row['fresh'])} | {mark} |"
            )
        lines.append("")
    if rss_lines:
        lines.append("## Peak RSS budgets")
        lines.append("")
        lines.extend(f"- {line}" for line in rss_lines)
        lines.append("")
    if errors:
        lines.append("## Errors")
        lines.append("")
        lines.extend(f"- {message}" for message in errors)
        lines.append("")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _run_quick(out_dir: Path, names) -> list[str]:
    """Regenerate each artifact's quick run into ``out_dir``.

    A bench that exits non-zero is recorded as an error and the others
    still run, so one failing bench does not hide the comparison of the
    rest.  Returns the errors.
    """
    errors = []
    for name in names:
        cmd = QUICK_COMMANDS.get(name)
        if cmd is None:
            continue
        script, *flags = cmd
        print(f"-- regenerating {name} ({script} --quick)")
        done = subprocess.run(
            [sys.executable, str(ROOT / script), *flags, "--out", str(out_dir / name)],
            cwd=ROOT,
        )
        if done.returncode != 0:
            errors.append(f"{name}: {script} --quick exited with status {done.returncode}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench", action="append", choices=sorted(EXTRACTORS),
        help="restrict to these artifacts (default: all known)",
    )
    parser.add_argument(
        "--fresh-dir", type=Path, default=ROOT,
        help="directory holding the freshly generated BENCH_*.json (default: repo root)",
    )
    parser.add_argument(
        "--baseline-ref", default="HEAD",
        help="git ref to read committed baselines from (default: HEAD)",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=None,
        help="read baselines from this directory instead of git",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.4,
        help="allowed fresh/committed ratio floor for perf metrics "
             "(default 0.4: quick-vs-full configs are only loosely comparable)",
    )
    parser.add_argument(
        "--run", action="store_true",
        help="regenerate the quick-mode artifacts into a temp dir first",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="missing fresh artifacts and empty comparisons fail too, and "
             "per-bench peak-RSS ceilings are enforced "
             "(the nightly's blocking mode); the default only skips them",
    )
    parser.add_argument(
        "--markdown-out", type=Path, default=None,
        help="also write the comparison as a markdown summary table "
             "(uploaded as a per-PR workflow artifact)",
    )
    args = parser.parse_args(argv)
    names = args.bench if args.bench else sorted(EXTRACTORS)

    fresh_dir = args.fresh_dir
    errors: list[str] = []
    tmp = None
    if args.run:
        tmp = tempfile.TemporaryDirectory(prefix="bench-fresh-")
        fresh_dir = Path(tmp.name)
        errors.extend(_run_quick(fresh_dir, names))

    any_regressed = False
    compared = 0
    summary: list[tuple[str, float, list[dict]]] = []
    rss_lines: list[str] = []
    for name in names:
        fresh_path = fresh_dir / name
        if not fresh_path.exists():
            if args.strict:
                errors.append(f"{name}: no fresh output at {fresh_path}")
            else:
                print(f"{name}: no fresh output at {fresh_path}, skipping")
            continue
        committed = _load_committed(name, args.baseline_ref, args.baseline_dir)
        if committed is None:
            # Fresh output exists but nothing is committed to guard it:
            # that is a hole in the safety net, not a pass.  Commit the
            # artifact (or --bench-restrict away from it) to go green.
            errors.append(
                f"{name}: fresh output present but no committed baseline "
                f"at {args.baseline_dir or args.baseline_ref}"
            )
            continue
        fresh = json.loads(fresh_path.read_text())

        # -- peak-RSS budget: an absolute ceiling, not a ratio ------------
        peak = fresh.get("peak_rss_kb")
        ceiling = RSS_CEILINGS_KB.get(name)
        if peak is not None and ceiling is not None:
            verdict = "over budget" if peak > ceiling else "ok"
            rss_lines.append(
                f"{name}: peak_rss={peak} KiB, ceiling={ceiling} KiB ({verdict})"
            )
            if peak > ceiling and args.strict:
                errors.append(
                    f"{name}: peak RSS {peak} KiB exceeds the "
                    f"{ceiling} KiB budget"
                )
        elif peak is None:
            rss_lines.append(f"{name}: no peak_rss_kb stamp (skipped)")

        # Per-bench tolerance overrides only ever tighten the gate.
        tolerance = max(args.tolerance, TOLERANCES.get(name, 0.0))
        rows = compare(fresh, committed, EXTRACTORS[name], tolerance)
        if not rows:
            if args.strict:
                errors.append(f"{name}: no comparable metrics (configurations disjoint)")
            else:
                print(f"{name}: no comparable metrics (configurations disjoint)")
            continue
        summary.append((name, tolerance, rows))
        print(f"== {name} (tolerance {tolerance:g}, baseline "
              f"{args.baseline_dir or args.baseline_ref})")
        for row in rows:
            compared += 1
            mark = "REGRESSED" if row["regressed"] else "ok"
            old, new = row["committed"], row["fresh"]
            print(f"  {mark:>9}  {row['metric']:<50} "
                  f"committed={_fmt(old):>8}  fresh={_fmt(new):>8}")
            any_regressed |= row["regressed"]
    if tmp is not None:
        tmp.cleanup()
    for line in rss_lines:
        print(f"rss: {line}")
    if args.markdown_out is not None:
        _write_markdown(args.markdown_out, summary, rss_lines, errors)
        print(f"wrote markdown summary to {args.markdown_out}")
    for message in errors:
        print(f"ERROR: {message}", file=sys.stderr)
    if compared == 0 and not errors:
        if args.strict:
            print("nothing compared (no overlapping artifacts): FAILED in "
                  "--strict mode", file=sys.stderr)
            return 1
        print("nothing compared (no overlapping artifacts); treating as pass")
        return 0
    if any_regressed or errors:
        print("regression check FAILED (inspect the rows and errors above)",
              file=sys.stderr)
        return 1
    print(f"regression check passed ({compared} metrics)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
