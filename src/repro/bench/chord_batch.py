"""Chord-path lookup throughput: per-call lookups vs the lockstep engine.

The PR-1 throughput bench (E17) measured batch sampling on the
*ideal* DHT; this bench measures the substrate the paper is actually
about.  For each ring size it times ``k`` Chord lookups issued

- one at a time through :meth:`ChordDHT.h` -- every hop a Python RPC
  dispatch through the simulated transport -- and
- as one :meth:`ChordDHT.h_many` batch through the lockstep snapshot
  engine (:mod:`repro.dht.chord.batch`),

in a *static* phase (ring untouched; ``warm_lockstep`` builds the
snapshot's route table once, and the batches read it) and under
*moderate churn* (a burst of live joins/crashes before every batch, so
each batch finds the route table stale and routes around dead fingers).

Because the engine's contract is charge-identical replay -- not merely
"fast" -- every phase verifies, on twin rings built from the same seed,
that the batched path returns bit-identical peers, per-target hop
counts and meter charges to the scalar loop (the static phase both
before and after ``warm_lockstep``, so the timed path is the verified
one); the verdicts are recorded in the JSON artifact next to the
throughput figures.  A speedup without the identities holding would be
a bug, not a result.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_chord_batch.py``,
or ``python -m repro bench chord-batch``; add ``--quick`` for the CI
smoke configuration) and writes ``BENCH_chord_batch.json`` at the repo
root so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from ..dht.chord.batch import lockstep_resolve
from ..dht.chord.idspace import point_to_target_id
from ..dht.chord.network import ChordNetwork
from ..dht.chord.node import LookupError_
from .harness import Table, time_call, write_bench_json

__all__ = ["main", "run", "measure", "DEFAULT_OUT"]

FULL_SIZES = [1_000, 10_000, 100_000]
FULL_K = 5_000
QUICK_SIZES = [1_000, 4_000]
QUICK_K = 400

#: Membership events per churn burst, as a fraction of n (joins and
#: crashes alternate, so the population stays roughly stationary).
CHURN_FRACTION = 0.002
CHURN_ROUNDS = 3

DEFAULT_OUT = Path(__file__).resolve().parents[3] / "BENCH_chord_batch.json"

_M_BITS = 20


def _twin_rings(n: int, seed: int) -> tuple[ChordNetwork, ChordNetwork]:
    """Two identical rings: one serves the batched path, one the scalar.

    Separate rings keep the meters and transport counters independent so
    charge identity is checked on totals, while the shared seed makes
    the memberships -- and every subsequent lookup route -- identical.
    """
    return (
        ChordNetwork.build(n, m=_M_BITS, rng=random.Random(seed)),
        ChordNetwork.build(n, m=_M_BITS, rng=random.Random(seed)),
    )


def _points(k: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [1.0 - rng.random() for _ in range(k)]


def _churn_burst(nets: tuple[ChordNetwork, ChordNetwork], events: int, rng) -> int:
    """Apply the same live join/crash burst to both twin rings.

    Decisions are drawn once from ``rng`` and replayed on both rings
    (identical by construction), so the twins stay in lockstep; no
    stabilization runs, leaving dead fingers for the lookups to route
    around -- the regime the engine's exact fallback exists for.
    """
    applied = 0
    for i in range(events):
        ids = nets[0].sorted_ids()
        if i % 2 == 0 and len(ids) > 8:
            victim = ids[rng.randrange(len(ids))]
            if victim == min(ids):
                continue  # keep the adapters' default entry node alive
            for net in nets:
                net.crash_node(victim)
        else:
            size = 1 << _M_BITS
            candidate = rng.randrange(size)
            while candidate in nets[0].nodes:
                candidate = rng.randrange(size)
            for net in nets:
                net.join_node(candidate)
        applied += 1
    return applied


def _verify(batch_dht, scalar_dht, xs: list[float]) -> dict:
    """Bit-identity of peers, charges and per-target hop counts."""
    before_a = batch_dht.cost.snapshot()
    before_b = scalar_dht.cost.snapshot()
    peers_a = batch_dht.h_many(xs)
    peers_b = [scalar_dht.h(x) for x in xs]
    delta_a = batch_dht.cost.snapshot() - before_a
    delta_b = scalar_dht.cost.snapshot() - before_b
    net = scalar_dht._network
    entry = net.nodes[scalar_dht.entry_id]
    targets = [point_to_target_id(x, net.m) for x in xs]
    scalar_hops: list[int | None] = []
    for t in targets:
        try:
            scalar_hops.append(entry.lookup(t).hops)
        except LookupError_:
            scalar_hops.append(None)  # the engine must predict this too
    transport = net.transport
    snapshot = batch_dht._network.snapshot()
    one_way = transport.latency_model.sample(net.rng)
    traces = lockstep_resolve(
        snapshot,
        batch_dht.entry_id,
        targets,
        mode="iterative",
        rpc_latency=one_way + one_way,
        oneway_latency=one_way,
        timeout=transport.timeout,
    )
    return {
        "identical_peers": peers_a == peers_b,
        "identical_messages": delta_a == delta_b,
        "identical_hops": [t.hops if t.ok else None for t in traces] == scalar_hops,
    }


def measure(n: int, k: int, seed: int = 0, repeat: int = 2) -> list[dict]:
    """Static and churn rows for one ring size."""
    rows = []
    nets = _twin_rings(n, seed)
    batch_dht = nets[0].dht()
    scalar_dht = nets[1].dht()

    # -- static phase ----------------------------------------------------
    identity = _verify(batch_dht, scalar_dht, _points(k, seed + 1))
    xs = _points(k, seed + 2)
    scalar_s = time_call(lambda: [scalar_dht.h(x) for x in xs], repeat=repeat)
    t0 = time.perf_counter()
    batch_dht.warm_lockstep()
    snapshot_s = time.perf_counter() - t0
    # The timed batches read the route table warm_lockstep just built,
    # so the identities must hold on that path as well.
    warmed = _verify(batch_dht, scalar_dht, _points(k, seed + 4))
    identity = {key: identity[key] and warmed[key] for key in identity}
    batch_s = time_call(lambda: batch_dht.h_many(xs), repeat=repeat)
    rows.append(
        {
            "n": n,
            "k": k,
            "phase": "static",
            "scalar_lookups_per_sec": k / scalar_s,
            "batch_lookups_per_sec": k / batch_s,
            "speedup": scalar_s / batch_s,
            "snapshot_build_seconds": snapshot_s,
            "churn_events": 0,
            **identity,
        }
    )

    # -- churn phase -----------------------------------------------------
    churn_rng = random.Random(seed + 3)
    events = max(4, int(n * CHURN_FRACTION))
    scalar_total = 0.0
    batch_total = 0.0
    applied = 0
    identity = {
        "identical_peers": True,
        "identical_messages": True,
        "identical_hops": True,
    }
    for r in range(CHURN_ROUNDS):
        applied += _churn_burst(nets, events, churn_rng)
        check = _verify(batch_dht, scalar_dht, _points(k // 4, seed + 10 + r))
        identity = {key: identity[key] and check[key] for key in identity}
        xs = _points(k, seed + 20 + r)
        t0 = time.perf_counter()
        for x in xs:
            scalar_dht.h(x)
        scalar_total += time.perf_counter() - t0
        t0 = time.perf_counter()
        batch_dht.h_many(xs)  # the post-churn ring: no current route table
        batch_total += time.perf_counter() - t0
    rows.append(
        {
            "n": n,
            "k": k * CHURN_ROUNDS,
            "phase": "churn",
            "scalar_lookups_per_sec": k * CHURN_ROUNDS / scalar_total,
            "batch_lookups_per_sec": k * CHURN_ROUNDS / batch_total,
            "speedup": scalar_total / batch_total,
            "snapshot_build_seconds": None,
            "churn_events": applied,
            **identity,
        }
    )
    return rows


def run(sizes, k: int, seed: int = 0, repeat: int = 2) -> tuple[Table, list[dict]]:
    table = Table(
        "Chord-path lookup throughput: scalar h() loop vs lockstep h_many()",
        ["n", "phase", "scalar l/s", "batch l/s", "speedup", "identical"],
    )
    results = []
    for n in sizes:
        for row in measure(n, k, seed=seed, repeat=repeat):
            results.append(row)
            table.add_row(
                row["n"],
                row["phase"],
                row["scalar_lookups_per_sec"],
                row["batch_lookups_per_sec"],
                row["speedup"],
                row["identical_peers"]
                and row["identical_messages"]
                and row["identical_hops"],
            )
    table.note("scalar = ChordDHT.h per point (per-hop Python RPC dispatch)")
    table.note("batch = ChordDHT.h_many: lockstep routing over the snapshot (static: its route table)")
    table.note("identical: peers, meter charges and hop counts match the scalar path bit-for-bit")
    table.note("churn rows interleave live join/crash bursts (no stabilization) between batches")
    return table, results


def emit(results: list[dict], out: Path, quick: bool, seed: int) -> Path:
    record = {
        "benchmark": "chord_batch",
        "substrate": "ChordDHT",
        "quick": quick,
        "seed": seed,
        "unit": "lookups/sec",
        "generated_unix": time.time(),
        "results": results,
    }
    return write_bench_json(out, record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke configuration")
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="override the ring sizes to measure",
    )
    parser.add_argument(
        "--k", type=int, default=None, help="override lookups per batch"
    )
    args = parser.parse_args(argv)

    sizes = args.sizes if args.sizes else (QUICK_SIZES if args.quick else FULL_SIZES)
    k = args.k if args.k else (QUICK_K if args.quick else FULL_K)
    repeat = 1 if args.quick else 2
    table, results = run(sizes, k, seed=args.seed, repeat=repeat)
    table.show()
    path = emit(results, args.out, quick=args.quick, seed=args.seed)
    print(f"wrote {path}")

    broken = [
        r for r in results
        if not (r["identical_peers"] and r["identical_messages"] and r["identical_hops"])
    ]
    if broken:
        print(
            f"FAIL: {len(broken)} row(s) broke scalar/batch identity", file=sys.stderr
        )
        return 1
    static = [r for r in results if r["phase"] == "static"]
    headline = max(static, key=lambda r: r["n"])
    floor = 1.5 if args.quick else 5.0
    if headline["speedup"] < floor:
        print(
            f"FAIL: static speedup {headline['speedup']:.1f}x at n={headline['n']} "
            f"below the {floor:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    print(f"static speedup {headline['speedup']:.1f}x at n={headline['n']} (floor {floor:.1f}x)")
    return 0
