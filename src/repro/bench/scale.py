"""Decade-scaling benchmark: million-node overlays held in flat arrays.

A :class:`~repro.dht.chord.network.ChordNetwork` holds its routing state
in one struct-of-arrays ring store and creates a peer's node object only
when something first addresses it, and
:class:`~repro.dht.kademlia.routing.SoAKademliaNetwork` is two sorted id
arrays; so both hold a *million-node* overlay in numpy arrays instead of
a million Python objects.  This bench pins that claim per decade: for
each ``n`` in 1e4 -> 1e6 it builds both (Chord at ``m=32`` with 8-deep
successor lists, Kademlia at ``m=32, k=20``), records build seconds and
**bytes of array state per node**, then serves a lookup batch -- Chord's
through the lockstep engine -- and records **lookups/sec**, the median
of :data:`SERVE_BATCHES` batches on fresh adapters after an untimed
one, with its IQR.  These
are the two curves the nightly regression gate holds to within 10%.  A
1e7 entry builds only (no serve phase), bounding the construction path
one decade past the serving claim.

A separate churn section checks the live ring's one-state invariant:
the CI-sized moderate-churn scenario preset must run on each shard's one
ring store -- no store built beyond the initial one per shard -- and
after an explicit interleaved join/crash/leave burst the store's arrays
must hold exactly the rows every live node reports.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_scale.py``,
or ``python -m repro bench scale``; ``--quick`` is the CI smoke
configuration: the n=1e5 decade only, no 1e7 build) and writes
``BENCH_scale.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import bisect
import random
import statistics
import sys
import time
from pathlib import Path

from ..dht.chord.network import ChordNetwork
from ..dht.kademlia.routing import SoAKademliaNetwork
from .harness import Table, peak_rss_kb, write_bench_json

__all__ = ["main", "run", "measure_decade", "measure_churn", "DEFAULT_OUT", "BACKENDS"]

FULL_DECADES = [10_000, 100_000, 1_000_000]
FULL_BUILD_ONLY = [10_000_000]
# Quick mode keeps the n=1e5 decade, served as in full mode, so the
# regression guard compares its row to the committed full baseline's
# like for like (a 1,024-point Chord batch reads ~0.85 of a 4,096-point
# one on the same ring).
QUICK_DECADES = [100_000]
QUICK_BUILD_ONLY: list[int] = []
LOOKUPS = 4096
#: Timed serve batches per row, each on a fresh adapter after one
#: untimed batch; the row reports their median rate and IQR.
SERVE_BATCHES = 5

#: Nodes in the churn-equivalence burst (live ChordNetwork, small ring).
CHURN_N = 192
CHURN_EVENTS = 96

DEFAULT_OUT = Path(__file__).resolve().parents[3] / "BENCH_scale.json"

BACKENDS = ("chord", "kademlia-soa")


def _build(backend: str, n: int, seed: int):
    rng = random.Random(seed)
    if backend == "chord":
        return ChordNetwork.build(n, m=32, rng=rng, successor_list_size=8)
    return SoAKademliaNetwork.build(n, m=32, k=20, rng=rng)


def _points(k: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [1.0 - rng.random() for _ in range(k)]


def _spot_check(net, backend: str) -> bool:
    """Structural check: Chord's every successor pointer (vectorized over
    the ring store), Kademlia's routing and sorted membership."""
    if backend == "chord":
        return net.ring_is_correct()
    ids = net.sorted_ids()
    return net.routing_is_correct() and ids == sorted(ids)


def _oracle_owner(ids: list[int], target: int) -> int:
    return ids[bisect.bisect_left(ids, target) % len(ids)]


def measure_decade(backend: str, n: int, lookups: int, seed: int,
                   serve: bool = True) -> list[dict]:
    """Build + (optionally) serve rows for one backend at one decade."""
    t0 = time.perf_counter()
    net = _build(backend, n, seed)
    build_seconds = time.perf_counter() - t0
    nbytes = net.snapshot().nbytes if backend == "chord" else net.array_bytes()
    rows = [{
        "backend": backend,
        "n": n,
        "phase": "build",
        "build_seconds": build_seconds,
        "array_bytes": nbytes,
        "bytes_per_node": nbytes / n,
        "spot_check_ok": _spot_check(net, backend),
        "peak_rss_kb": peak_rss_kb(),
    }]
    if not serve:
        return rows

    xs = _points(lookups, seed + 2)
    # Untimed: the first batch in a process reads ~8% slow, which would
    # make the IQR measure it rather than run-to-run spread.
    net.dht().h_many(xs)
    rates = []
    for _ in range(SERVE_BATCHES):
        dht = net.dht()
        t0 = time.perf_counter()
        refs = dht.h_many(xs)
        rates.append(lookups / (time.perf_counter() - t0))
    q1, _, q3 = statistics.quantiles(rates, n=4)

    # Oracle correctness on a sampled subset (the full check is O(n)
    # Python at the big decades).
    from ..dht.idspace import point_to_target_id

    ids = net.sorted_ids()
    check = random.Random(seed + 3).sample(range(lookups), min(128, lookups))
    oracle_ok = all(
        refs[i].peer_id == _oracle_owner(ids, point_to_target_id(xs[i], net.m))
        for i in check
    )
    rows.append({
        "backend": backend,
        "n": n,
        "phase": "serve",
        "lookups": lookups,
        "batches": SERVE_BATCHES,
        "lookups_per_sec": statistics.median(rates),
        "lookups_per_sec_iqr": q3 - q1,
        "msgs_per_lookup": dht.cost.messages / dht.cost.h_calls,
        "oracle_ok": oracle_ok,
        "peak_rss_kb": peak_rss_kb(),
    })
    return rows


def _node_rows(net: ChordNetwork) -> tuple:
    """``(id, successor-tuple, finger-tuple)`` per live node in id order,
    as each node reports its rows: what the ring store's
    ``canonical_state()`` must decode from its arrays."""
    return tuple(
        (node_id, tuple(net.nodes[node_id].successors), tuple(net.nodes[node_id].fingers))
        for node_id in sorted(net.nodes)
    )


def measure_churn(seed: int = 0) -> dict:
    """The one-state invariant, checked on the live substrates.

    1. The CI-sized moderate-churn scenario preset (``smoke``) must run
       with **zero** extra store builds: every shard's
       ``snapshot_builds`` stays at the initial 1, with the churn
       written to the store (``snapshot_patches`` counts the writes).
    2. After an explicit join/crash/leave/stabilize burst on a
       :class:`ChordNetwork`, the store's arrays must decode to exactly
       the successor lists and finger tables its nodes report
       (recorded as ``incremental_equals_rebuild``).
    """
    from ..scenarios import preset, run_scenario

    result = run_scenario(preset("smoke"))
    full_rebuilds = sum(max(0, s.snapshot_builds - 1) for s in result.shards)
    patches = sum(s.snapshot_patches for s in result.shards)

    # -- explicit burst on a live ring -------------------------------------
    rng = random.Random(seed + 7)
    net = ChordNetwork.build(CHURN_N, m=16, rng=random.Random(seed + 8))
    for _ in range(CHURN_EVENTS):
        op = rng.randrange(4)
        ids = net.sorted_ids()
        if op == 0:
            net.join_node()
        elif op == 1 and len(ids) > 8:
            net.crash_node(rng.choice(ids))
        elif op == 2 and len(ids) > 8:
            net.leave_node(rng.choice(ids))
        else:
            net.stabilize_round()
    incremental_ok = net.snapshot().canonical_state() == _node_rows(net)
    return {
        "preset": "smoke",
        "shards": len(result.shards),
        "scenario_churn_events": result.churn_events,
        "full_rebuilds": full_rebuilds,
        "snapshot_patches": patches,
        "burst_events": CHURN_EVENTS,
        "burst_builds": net.snapshot_builds,
        "burst_patches": net.snapshot_patches,
        "incremental_equals_rebuild": incremental_ok,
    }


def run(decades, build_only, lookups: int, seed: int = 0):
    table = Table(
        "Scaling: array memory/node and lookups/sec per decade",
        ["backend", "n", "build s", "bytes/node", "lookups/s", "msgs/h", "ok"],
    )
    results = []
    for n in decades:
        for backend in BACKENDS:
            rows = measure_decade(backend, n, lookups, seed)
            results.extend(rows)
            build = rows[0]
            serve = rows[1] if len(rows) > 1 else {}
            table.add_row(
                backend, n, build["build_seconds"], build["bytes_per_node"],
                serve.get("lookups_per_sec", float("nan")),
                serve.get("msgs_per_lookup", float("nan")),
                build["spot_check_ok"] and serve.get("oracle_ok", True),
            )
    for n in build_only:
        for backend in BACKENDS:
            rows = measure_decade(backend, n, lookups, seed, serve=False)
            results.extend(rows)
            build = rows[0]
            table.add_row(
                backend, n, build["build_seconds"], build["bytes_per_node"],
                float("nan"), float("nan"), build["spot_check_ok"],
            )
    churn = measure_churn(seed)
    table.note(
        f"churn ({churn['preset']} preset): {churn['full_rebuilds']} extra "
        f"store builds, {churn['snapshot_patches']} store writes"
    )
    table.note(f"store==node rows: {churn['incremental_equals_rebuild']}")
    table.note(
        "bytes/node counts flat array state only: Chord's ring store (ids, "
        "fingers, successors), Kademlia's id arrays"
    )
    table.note(
        f"lookups/s: median of {SERVE_BATCHES} batches on fresh adapters, after an untimed one"
    )
    return table, results, churn


def emit(results, churn, out: Path, quick: bool, seed: int) -> Path:
    record = {
        "benchmark": "scale",
        "backends": list(BACKENDS),
        "quick": quick,
        "seed": seed,
        "generated_unix": time.time(),
        "results": results,
        "churn": churn,
    }
    return write_bench_json(out, record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke configuration")
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="override the serve decades to measure",
    )
    parser.add_argument(
        "--lookups", type=int, default=None, help="override the serve batch size"
    )
    args = parser.parse_args(argv)
    if args.lookups is not None and args.lookups < 1:
        parser.error("--lookups must be positive")
    if args.sizes is not None and any(n < 2 for n in args.sizes):
        parser.error("--sizes must be at least 2")

    if args.sizes is not None:
        decades, build_only = args.sizes, []
    elif args.quick:
        decades, build_only = QUICK_DECADES, QUICK_BUILD_ONLY
    else:
        decades, build_only = FULL_DECADES, FULL_BUILD_ONLY
    lookups = args.lookups if args.lookups is not None else LOOKUPS

    table, results, churn = run(decades, build_only, lookups, seed=args.seed)
    table.show()
    path = emit(results, churn, args.out, quick=args.quick, seed=args.seed)
    print(f"wrote {path}")

    failures = []
    if churn["full_rebuilds"] != 0:
        failures.append(
            f"churn preset built {churn['full_rebuilds']} ring stores beyond the first"
        )
    if not churn["incremental_equals_rebuild"]:
        failures.append("the ring store diverged from the rows its nodes report")
    for row in results:
        if row["phase"] == "build" and not row["spot_check_ok"]:
            failures.append(f"{row['backend']} n={row['n']}: structural spot check failed")
        if row["phase"] == "serve" and not row["oracle_ok"]:
            failures.append(f"{row['backend']} n={row['n']}: served a non-oracle owner")
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0
