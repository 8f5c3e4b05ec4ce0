"""One serving benchmark for the King-Saia peer sampler.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chord-serve --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up ``SETUPS`` times (``setup_s`` is the
median), serves open-loop Poisson load for at least ``--seconds`` wall
seconds and prints every end-to-end metric.  ``--trace 1`` serves the
same seed once untraced and once with a span around every layer
boundary, checks that both served identical draws, messages and
simulated latencies, and prints the per-layer table.  Either way the
output checks run, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _manifest(w, seed: int, seconds: float, trace: bool) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": w.record(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": _git_revision(),
        "repro_pure_python": os.environ.get("REPRO_PURE_PYTHON", ""),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _digest(system) -> list:
    """What the traced replay must reproduce exactly: every response."""
    return [
        (r.request_id, r.status.value, r.shard_id, r.peer.peer_id if r.peer else -1, r.completion_time)
        for r in system.service.responses
    ]


def _table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))

    from perfbench import checks, layers, workloads
    from perfbench.spans import SpanRecorder

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    w = workloads.WORKLOADS[args.workload]
    manifest = _manifest(w, args.seed, args.seconds, bool(args.trace))
    inputs = workloads.make_inputs(w)
    total = workloads.arrivals_for(w, args.seconds)
    manifest["arrivals"] = total

    if not args.trace:
        system, setup_wall, setup_ref = workloads.timed_setups(
            w, args.seed, inputs, workloads.SETUPS
        )
        served = workloads.serve(system, w, args.seed, total)
        if not w.static:
            served.ring_recovered = workloads.recover(system)
        metrics = workloads.end_to_end(system, served, setup_ref)
        results = checks.run_checks(w, system, served, metrics["msgs_per_draw"][0])
        manifest["setup_wall_s_each"] = setup_wall
        manifest["setup_ref_s_each"] = setup_ref
        manifest["serve"] = {
            "wall_s": served.wall_s,
            "windows": len(served.windows),
            "completed": system.service.metrics.completed,
            "reference_wall_s": served.reference_wall_s,
            "raw_draws_per_s": system.service.metrics.completed / served.wall_s,
        }
        title = f"{w.name} seed={args.seed}: end-to-end"
    else:
        system, setup_wall, _ = workloads.timed_setups(w, args.seed, inputs, 1)
        served = workloads.serve(system, w, args.seed, total)
        untraced_wall = setup_wall[0] + served.wall_s
        untraced = (_digest(system), served.cost, workloads.latencies(system.service))
        system = served = None
        gc.collect()

        rec = SpanRecorder()
        stats = layers.LayerStats()
        try:
            layers.install(rec, stats)
            with rec.span("bench"):
                with rec.span("bench.setup"):
                    system = workloads.set_up(w, args.seed, inputs)
                with rec.span("bench.serve"):
                    served = workloads.serve(system, w, args.seed, total)
        finally:
            rec.restore()
        if not w.static:
            served.ring_recovered = workloads.recover(system)
        metrics = layers.layer_metrics(rec, stats, system, served, untraced_wall)
        msgs_per_draw = sum(c.messages for c in served.cost) / system.service.metrics.completed
        results = checks.run_checks(w, system, served, msgs_per_draw)
        traced = (_digest(system), served.cost, workloads.latencies(system.service))
        results.append(
            ("trace_identical", traced == untraced, "draws, meter and latencies match the untraced run")
        )
        accounted = metrics["trace.accounted_frac"][0]
        results.append(
            ("trace_accounts", abs(accounted - 1.0) < 1e-6, f"self times cover {accounted:.9f} of traced wall")
        )
        manifest["spans_file"] = str(rec.write(BENCH_DIR / "out", f"{w.name}-seed{args.seed}").relative_to(ROOT))
        title = f"{w.name} seed={args.seed}: per layer (traced)"

    correct = all(ok for _, ok, _ in results)
    _table(title, metrics)
    print("checks")
    for name, ok, detail in results:
        print(f"  {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    m = system.service.metrics
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": served.submitted,
                "failed": m.failed + m.rejected,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"perfbench: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    sys.exit(code)
