"""Service load benchmark: micro-batch vs. per-request dispatch.

Open-loop Poisson traffic drives the sampling service
(:mod:`repro.service`) at several shard counts, comparing micro-batch
dispatch (coalesce up to ``max_batch`` requests, execute through the
PR-1 vectorized engine) against per-request dispatch (batch size 1
through the scalar sampler).  Reported per configuration:

- *sustained req/s* -- completed requests per wall-clock second of
  simulation, the end-to-end serving throughput of this process;
- *sim throughput* -- completed requests per simulated time unit, the
  queueing-model capacity under the service-time model;
- queue/service/total latency tails (p50/p99, simulated units) and the
  rejection count (admission-control backpressure).

A shard dispatches a request at once when it is idle and batches only
what queues behind a batch in service, so batches form with load.  A
second sweep offers 0.1, 0.3 and 0.5 requests per sim unit to one
micro-batch shard and records the mean batch and the queue and total
latency tails at each rate.  Results go to ``BENCH_service.json`` at
the repo root; the full configuration serves n=100k-peer shards.

The floor is asserted on the simulated clock, where it is
deterministic per seed: at every shard count micro-batch dispatch must
sustain at least ``SIM_THROUGHPUT_FLOOR`` times per-request dispatch's
sim throughput, with no more rejections, and the mean batch must grow
with the offered load.  Sustained req/s rides along in the record
unasserted: the engine amortizes its own per-dispatch cost, and a
timed cell of 0.02-0.2 s cannot resolve a wall-clock ratio.  Each
dispatch-comparison cell is served ``SERVES`` times from scratch (the
same seed, so the same sim-clock figures); its ``sustained_rps`` is
their median and ``sustained_rps_iqr`` their interquartile range.

Run standalone (``PYTHONPATH=src python benchmarks/bench_service.py``,
add ``--quick`` for the CI smoke configuration) or under pytest.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from repro.analysis.theory import expected_messages_per_sample
from repro.bench.harness import Table, write_bench_json
from repro.core.sampler import SamplerParams
from repro.dht import LogCost
from repro.service import build_load, build_service
from repro.service.dispatch import ServiceTimeModel

FULL_N = 100_000
FULL_REQUESTS = 3_000
FULL_SHARDS = [1, 4]
QUICK_N = 2_000
QUICK_REQUESTS = 500
QUICK_SHARDS = [1, 2]

#: Offered load per shard of the dispatch comparison, as a multiple of
#: per-request dispatch's sim-time capacity (:func:`overload_rate`):
#: above it, so per-request dispatch saturates (exercising admission
#: control) while micro-batch keeps up.
OVERLOAD = 1.5

#: Offered loads per shard of the load sweep (one micro-batch shard).
SWEEP_RATES = [0.1, 0.3, 0.5]

#: Micro-batch over per-request sim throughput, required at every shard
#: count (full mode reads 1.40x and 1.64x, quick 1.44x and 1.52x).
SIM_THROUGHPUT_FLOOR = 1.1

MAX_BATCH = 32
SEED = 0

#: Fresh serves timed per dispatch-comparison cell.  One serve lasts
#: 0.02-0.4 s of wall, and a single reading of an unchanged cell has
#: fallen to a fifth of its usual value; the median of five does not
#: move with one such reading.
SERVES = 5

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def overload_rate(n: int) -> float:
    """``OVERLOAD`` times the requests per sim unit that one shard of
    ``n`` ideal peers serves one dispatch at a time.

    A per-request dispatch takes one dispatch overhead plus its draw's
    latency (:class:`~repro.service.dispatch.ServiceTimeModel`); on the
    ideal ring a draw's latency equals its messages, whose expectation
    is Theorem 7's cost (:func:`expected_messages_per_sample` at
    ``n_hat = n``, with the ring's ``h`` cost).
    """
    model = ServiceTimeModel()
    messages = expected_messages_per_sample(
        n, SamplerParams.from_estimate(float(n)), LogCost(n).h_messages
    )
    return OVERLOAD / (model.dispatch_overhead + messages * model.time_per_latency)


def _serve(n: int, shards: int, dispatch: str, requests: int, rate_per_shard: float):
    """Build a fresh service, drive it to completion: ``(summary, wall seconds)``."""
    service = build_service(
        n=n,
        shards=shards,
        seed=SEED,
        dispatch=dispatch,  # scalar mode forces per-request (batch size 1)
        max_batch=MAX_BATCH,
    )
    generator = build_load(
        service, rate=rate_per_shard * shards, total=requests, seed=SEED
    )
    generator.start()
    start = time.perf_counter()
    service.run()
    wall = time.perf_counter() - start
    return service.summary(), wall


def measure(
    n: int,
    shards: int,
    dispatch: str,
    requests: int,
    *,
    rate_per_shard: float | None = None,
    serves: int = 1,
) -> dict:
    """Drive one configuration to completion ``serves`` times; return its
    scorecard.  ``rate_per_shard`` defaults to :func:`overload_rate`.
    The sim-clock figures come from the first serve (every serve of one
    seed has the same); ``wall_seconds`` and ``sustained_rps`` are the
    serves' medians, and with more than one serve ``sustained_rps_iqr``
    is the interquartile range of their rates."""
    if rate_per_shard is None:
        rate_per_shard = overload_rate(n)
    summary, wall = _serve(n, shards, dispatch, requests, rate_per_shard)
    walls = [wall] + [
        _serve(n, shards, dispatch, requests, rate_per_shard)[1] for _ in range(serves - 1)
    ]
    rates = [summary["completed"] / w for w in walls]
    lat = summary["latency"]
    row = {
        "n": n,
        "shards": shards,
        "dispatch": dispatch,
        "rate_per_shard": rate_per_shard,
        "offered": requests,
        "completed": summary["completed"],
        "rejected": summary["rejected"],
        "wall_seconds": statistics.median(walls),
        "sustained_rps": statistics.median(rates),
        "sim_elapsed": summary["elapsed"],
        "sim_throughput": summary["throughput"],
        "mean_batch": summary["batch_size"]["mean"],
        "queue_p50": lat["queue_latency"]["p50"],
        "queue_p99": lat["queue_latency"]["p99"],
        "service_p99": lat["service_latency"]["p99"],
        "total_p50": lat["total_latency"]["p50"],
        "total_p99": lat["total_latency"]["p99"],
    }
    if serves > 1:
        q1, _, q3 = statistics.quantiles(rates, n=4)
        row["sustained_rps_iqr"] = q3 - q1
    return row


def run_dispatch_comparison(n: int, shard_counts, requests: int):
    table = Table(
        f"service throughput: micro-batch vs per-request dispatch (n={n}/shard)",
        ["shards", "dispatch", "completed", "rejected", "sustained req/s",
         "sim thr", "q p99", "total p99"],
    )
    results = []
    for shards in shard_counts:
        for dispatch in ("batch", "scalar"):
            row = measure(n, shards, dispatch, requests, serves=SERVES)
            results.append(row)
            table.add_row(
                shards, dispatch, row["completed"], row["rejected"],
                row["sustained_rps"], row["sim_throughput"],
                row["queue_p99"], row["total_p99"],
            )
    table.note("batch = coalesced sample_many on the bulk engine (max_batch=32)")
    table.note("scalar = one dispatch per request through the per-call sampler")
    table.note("latency in simulated time units; req/s in wall-clock seconds, "
               f"the median of {SERVES} fresh serves")
    return table, results


def run_load_sweep(n: int, rates, requests: int):
    table = Table(
        f"load sweep (n={n}, 1 shard, micro-batch)",
        ["rate/shard", "mean batch", "q p50", "q p99", "total p50", "total p99"],
    )
    results = []
    for rate in rates:
        row = measure(n, 1, "batch", requests, rate_per_shard=rate)
        results.append(row)
        table.add_row(
            rate, row["mean_batch"], row["queue_p50"], row["queue_p99"],
            row["total_p50"], row["total_p99"],
        )
    table.note("an idle shard dispatches at once; batches form behind a busy one")
    return table, results


def emit(dispatch_results, load_results, out: Path, quick: bool) -> Path:
    record = {
        "benchmark": "service_load",
        "substrate": "IdealDHT",
        "quick": quick,
        "seed": SEED,
        "overload": OVERLOAD,
        "max_batch": MAX_BATCH,
        "generated_unix": time.time(),
        "dispatch_comparison": dispatch_results,
        "load_sweep": load_results,
    }
    return write_bench_json(out, record)


def check_batch_wins(dispatch_results) -> list[str]:
    """What fails the floor: per shard count, micro-batch below
    ``SIM_THROUGHPUT_FLOOR`` times per-request sim throughput, or
    rejecting more requests than per-request dispatch."""
    failures = []
    by_key = {(r["shards"], r["dispatch"]): r for r in dispatch_results}
    for shards in sorted({r["shards"] for r in dispatch_results}):
        batch, scalar = by_key[(shards, "batch")], by_key[(shards, "scalar")]
        ratio = batch["sim_throughput"] / scalar["sim_throughput"]
        if ratio < SIM_THROUGHPUT_FLOOR:
            failures.append(
                f"shards={shards}: micro-batch sim throughput {ratio:.3f}x "
                f"per-request's, below the {SIM_THROUGHPUT_FLOOR}x floor"
            )
        if batch["rejected"] > scalar["rejected"]:
            failures.append(
                f"shards={shards}: micro-batch rejected {batch['rejected']}, "
                f"per-request {scalar['rejected']}"
            )
    return failures


def check_batches_grow(load_results) -> list[str]:
    """What fails the load sweep: a mean batch that does not grow with load."""
    batches = [row["mean_batch"] for row in load_results]
    if all(lo < hi for lo, hi in zip(batches, batches[1:])):
        return []
    return [f"mean batch {batches} does not grow with load"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke configuration")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args(argv)

    if args.quick:
        n, requests, shard_counts = QUICK_N, QUICK_REQUESTS, QUICK_SHARDS
    else:
        n, requests, shard_counts = FULL_N, FULL_REQUESTS, FULL_SHARDS

    d_table, d_results = run_dispatch_comparison(n, shard_counts, requests)
    d_table.show()
    l_table, l_results = run_load_sweep(n, SWEEP_RATES, requests)
    l_table.show()
    path = emit(d_results, l_results, args.out, quick=args.quick)
    print(f"wrote {path}")

    failures = check_batch_wins(d_results) + check_batches_grow(l_results)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"micro-batch sustains >= {SIM_THROUGHPUT_FLOOR}x per-request sim "
          f"throughput at every shard count; batches grow with load")
    return 0


def test_service_bench_quick(show, tmp_path):
    """Smoke configuration: micro-batch must beat per-request dispatch."""
    d_table, d_results = run_dispatch_comparison(QUICK_N, [1, 2], 300)
    show(d_table)
    l_table, l_results = run_load_sweep(QUICK_N, SWEEP_RATES, 300)
    show(l_table)
    emit(d_results, l_results, tmp_path / "BENCH_service.json", quick=True)
    assert check_batch_wins(d_results) == []
    assert check_batches_grow(l_results) == []


if __name__ == "__main__":
    raise SystemExit(main())
