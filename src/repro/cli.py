"""Command-line interface: run the paper's algorithms from a shell.

Subcommands::

    python -m repro estimate   --n 5000             # Estimate-n accuracy
    python -m repro sample     --n 5000 --samples 5 # uniform draws + costs
    python -m repro sample     --n 500 --backend kademlia   # XOR substrate
    python -m repro sample     --n 5000 --samples 500 --batch  # bulk engine
    python -m repro uniformity --n 256 --draws 20000
    python -m repro chord      --n 128 --samples 20 # on simulated Chord
    python -m repro serve      --n 5000 --rate 1.0 --shards 2 --requests 2000
    python -m repro serve      --substrate kademlia --n 2000 --requests 1000
    python -m repro scenario run --preset smoke     # serve under live churn
    python -m repro scenario run --preset smoke --backend kademlia
    python -m repro scenario run --preset mass-failure --n 300   # outage lab
    python -m repro scenario run --preset partition-heal --backend kademlia
    python -m repro scenario run --preset mass-failure --n 300 --transport async
    python -m repro scenario list                   # churn + fault regimes
    python -m repro trace --preset smoke            # traced run + exports
    python -m repro trace --backend kademlia --sample slowest:32
    python -m repro faults list                     # injectors and presets
    python -m repro bench chord-batch --quick       # lockstep lookup bench
    python -m repro bench backends --quick          # Chord-vs-Kademlia costs
    python -m repro bench scale --quick             # decade scaling
    python -m repro bench async --quick             # message-level outage run

Every subcommand accepts ``--seed`` for reproducibility and prints a
plain-text report; exit status is non-zero on invalid arguments.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

from .analysis.stats import chi_square_uniform, max_min_ratio
from .baselines.naive import NaiveSampler
from .bench.harness import write_bench_json
from .core.engine import BatchSampler
from .core.estimate import estimate_n, estimate_n_median
from .core.sampler import RandomPeerSampler
from .dht.chord.network import ChordNetwork
from .dht.ideal import IdealDHT
from .dht.kademlia.network import KademliaNetwork
from .faults import INJECTORS
from .obs import Tracer, analyze, parse_policy, prometheus_text, write_chrome_trace, write_jsonl
from .scenarios import (
    BACKENDS,
    FAULT_PRESETS,
    PRESETS,
    TRANSPORTS,
    critical_path_table,
    fault_preset,
    hop_table,
    preset,
    results_record,
    results_table,
    run_fault_scenario,
    run_scenario,
    slowest_table,
)
from .adversary.state import LIE_STRATEGIES
from .service import DISPATCH_MODES, POLICIES, SUBSTRATES, build_load, build_service
from .service.shapes import LOAD_SHAPES

__all__ = ["build_parser", "main"]

#: Every substrate a single-ring subcommand can be pointed at.
BACKEND_CHOICES = ("ideal", "chord", "kademlia")


def _build_backend_dht(backend: str, n: int, seed: int, m: int | None = None):
    """One substrate of the requested backend for the demo subcommands.

    Chord defaults to its usual 20-bit ring, Kademlia to the practical
    32-bit space (``KademliaNetwork.build_dht``'s default); both
    validate that ``n`` distinct ids fit.
    """
    rng = random.Random(seed)
    if backend == "chord":
        return ChordNetwork.build_dht(n, m=m if m is not None else 20, rng=rng)
    if backend == "kademlia":
        return KademliaNetwork.build_dht(n, m=m if m is not None else 32, rng=rng)
    return IdealDHT.random(n, rng)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Choosing a Random Peer (King & Saia, PODC 2004) -- demos",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run Estimate-n on a random ring")
    p_est.add_argument("--n", type=int, default=1000, help="true network size")
    p_est.add_argument("--c1", type=float, default=4.0, help="tightness constant")
    p_est.add_argument(
        "--vantages", type=int, default=1,
        help="median over this many vantage peers (variance reduction)",
    )

    p_sample = sub.add_parser("sample", help="draw uniform peers with cost stats")
    p_sample.add_argument("--n", type=int, default=1000)
    p_sample.add_argument("--samples", type=int, default=5)
    p_sample.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="ideal",
        help="substrate to sample over: the analytic oracle, the Chord "
             "simulator, or the Kademlia simulator",
    )
    p_sample.add_argument(
        "--batch", action="store_true",
        help="draw all samples in one BatchSampler.sample_many call "
             "(the PR-1 vectorized engine) instead of a scalar loop",
    )

    p_uni = sub.add_parser("uniformity", help="chi-square vs the naive heuristic")
    p_uni.add_argument("--n", type=int, default=256)
    p_uni.add_argument("--draws", type=int, default=10_000)

    p_chord = sub.add_parser("chord", help="sample over a simulated Chord ring")
    p_chord.add_argument("--n", type=int, default=128)
    p_chord.add_argument("--m", type=int, default=20, help="identifier bits")
    p_chord.add_argument("--samples", type=int, default=10)

    p_serve = sub.add_parser(
        "serve",
        help="run the sampling service under open-loop load: an idle shard "
             "dispatches a request on arrival, a busy one batches its queue",
    )
    p_serve.add_argument("--n", type=int, default=1000, help="peers per shard substrate")
    p_serve.add_argument("--rate", type=float, default=1.0, help="Poisson arrivals per time unit")
    p_serve.add_argument("--shards", type=int, default=2, help="substrate shard count")
    p_serve.add_argument("--requests", type=int, default=2000, help="total requests to offer")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="most queued requests one dispatch takes")
    p_serve.add_argument("--max-queue", type=int, default=256, help="per-shard admission bound")
    p_serve.add_argument("--policy", choices=POLICIES, default="round-robin")
    p_serve.add_argument("--dispatch", choices=DISPATCH_MODES, default="batch")
    p_serve.add_argument("--substrate", "--backend", choices=SUBSTRATES, default="ideal",
                         help="shard substrate (--backend is an alias)")
    p_serve.add_argument("--chord-m", type=int, default=20, help="Chord identifier bits")
    p_serve.add_argument("--kad-bits", type=int, default=32, help="Kademlia identifier bits")
    p_serve.add_argument("--kad-k", type=int, default=20, help="Kademlia bucket size")

    p_scn = sub.add_parser(
        "scenario",
        help="dynamic-membership scenario lab: serve load while the ring churns",
    )
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)
    scn_sub.add_parser("list", help="show the named presets and their regimes")
    p_run = scn_sub.add_parser("run", help="run one preset scenario end to end")
    p_run.add_argument(
        "--preset",
        choices=sorted(PRESETS) + sorted(FAULT_PRESETS),
        default="smoke",
        help="a churn regime or a structured-outage regime "
             f"({', '.join(sorted(FAULT_PRESETS))})",
    )
    p_run.add_argument("--backend", choices=BACKENDS, default=None,
                       help="override the shard overlay (chord or kademlia)")
    p_run.add_argument("--transport", choices=TRANSPORTS, default=None,
                       help="override how messages move: sync call-and-return "
                            "or the async message-level transport")
    p_run.add_argument("--n", type=int, default=None,
                       help="override the overlay size")
    p_run.add_argument("--requests", type=int, default=None, help="override offered requests")
    p_run.add_argument("--rate", type=float, default=None, help="override arrival rate")
    p_run.add_argument("--churn-rate", type=float, default=None,
                       help="override membership events per time unit per shard")
    p_run.add_argument("--crash-fraction", type=float, default=None,
                       help="override P(departure is a crash)")
    p_run.add_argument("--stabilize-interval", type=float, default=None,
                       help="override maintenance cadence (0 disables)")
    p_run.add_argument("--adversary", type=float, default=None, metavar="FRACTION",
                       help="mark this fraction of each ring Byzantine "
                            "(0 = everyone honest; see docs/ADVERSARY.md)")
    p_run.add_argument("--lie", choices=LIE_STRATEGIES, default=None,
                       help="lie strategy for Byzantine peers "
                            "(with --adversary or an adversarial preset)")
    p_run.add_argument("--committee-size", type=int, default=None,
                       help="committee draws per capture election")
    p_run.add_argument("--load-shape", choices=LOAD_SHAPES, default=None,
                       help="arrival-rate modulator (constant, diurnal, flash)")
    p_run.add_argument("--key-skew", type=float, default=None,
                       help="Zipf exponent for request keys (0 = unkeyed)")
    p_run.add_argument("--out", type=Path, default=None,
                       help="also write the JSON record to this path")

    p_trace = sub.add_parser(
        "trace",
        help="run a churn scenario with end-to-end tracing and export the spans",
    )
    p_trace.add_argument("--preset", choices=sorted(PRESETS), default="smoke",
                         help="the churn regime to trace")
    p_trace.add_argument("--backend", choices=BACKENDS, default=None,
                         help="override the shard overlay (chord or kademlia)")
    p_trace.add_argument("--n", type=int, default=None, help="override the overlay size")
    p_trace.add_argument("--requests", type=int, default=None,
                         help="override offered requests")
    p_trace.add_argument("--rate", type=float, default=None, help="override arrival rate")
    p_trace.add_argument("--sample", default="all",
                         help="head-sampling policy: all, 1-in-<k> or slowest:<n>")
    p_trace.add_argument("--out-dir", type=Path, default=Path("traces"),
                         help="directory for trace.jsonl / trace.chrome.json / metrics.prom")
    p_trace.add_argument("--slowest", type=int, default=10,
                         help="slowest-request rows to print")

    p_flt = sub.add_parser(
        "faults",
        help="fault-injection subsystem: injectors, presets, retry policies",
    )
    flt_sub = p_flt.add_subparsers(dest="faults_command", required=True)
    flt_sub.add_parser("list", help="show the available injectors and outage presets")

    p_bench = sub.add_parser(
        "bench",
        help="run an artifact-producing benchmark without leaving the CLI",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_cb = bench_sub.add_parser(
        "chord-batch",
        help="Chord lookup throughput: scalar h() loop vs the lockstep engine",
    )
    p_cb.add_argument("--quick", action="store_true", help="CI smoke configuration")
    p_cb.add_argument("--out", type=Path, default=None, help="JSON output path")
    p_cb.add_argument("--sizes", type=int, nargs="+", default=None,
                      help="override the ring sizes to measure")
    p_cb.add_argument("--k", type=int, default=None,
                      help="override lookups per batch")
    p_bk = bench_sub.add_parser(
        "backends",
        help="substrate comparison: the sampling workload on Chord vs Kademlia",
    )
    p_bk.add_argument("--quick", action="store_true", help="CI smoke configuration")
    p_bk.add_argument("--out", type=Path, default=None, help="JSON output path")
    p_bk.add_argument("--sizes", type=int, nargs="+", default=None,
                      help="override the overlay sizes to measure")
    p_bk.add_argument("--samples", type=int, default=None,
                      help="override draws per phase")
    p_sc = bench_sub.add_parser(
        "scale",
        help="decade scaling of the struct-of-arrays substrates: "
             "memory/node and lookups/sec from 1e4 to 1e6 (1e7 build-only)",
    )
    p_sc.add_argument("--quick", action="store_true", help="CI smoke configuration")
    p_sc.add_argument("--out", type=Path, default=None, help="JSON output path")
    p_sc.add_argument("--sizes", type=int, nargs="+", default=None,
                      help="override the serve decades to measure")
    p_sc.add_argument("--lookups", type=int, default=None,
                      help="override the serve batch size")
    p_as = bench_sub.add_parser(
        "async",
        help="mass failure on the async transport: message-level recovery "
             "time and per-hop RTT quantiles",
    )
    p_as.add_argument("--quick", action="store_true", help="CI smoke configuration")
    p_as.add_argument("--out", type=Path, default=None, help="JSON output path")
    p_as.add_argument("--n", type=int, default=None, help="override the overlay size")
    return parser


def _cmd_estimate(args) -> int:
    if args.n < 1 or args.vantages < 1:
        print("error: --n and --vantages must be positive", file=sys.stderr)
        return 2
    dht = IdealDHT.random(args.n, random.Random(args.seed))
    if args.vantages > 1:
        result = estimate_n_median(
            dht, vantages=args.vantages, c1=args.c1,
            rng=random.Random(args.seed + 1),
        )
    else:
        result = estimate_n(dht, c1=args.c1)
    print(f"true n         : {args.n}")
    print(f"n_hat          : {result.n_hat:.1f} (ratio {result.n_hat / args.n:.3f})")
    print(f"first estimate : {result.n_hat_1:.1f}")
    print(f"next-calls     : {result.hops}")
    print(f"exact (lapped) : {result.exact}")
    return 0


def _cmd_sample(args) -> int:
    if args.n < 1 or args.samples < 1:
        print("error: --n and --samples must be positive", file=sys.stderr)
        return 2
    try:
        dht = _build_backend_dht(args.backend, args.n, args.seed)
    except ValueError as exc:  # id space too small for --n
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed + 1)
    if args.batch:
        engine = BatchSampler(dht, rng=rng)
        print(f"n={args.n}  backend={args.backend}  n_hat={engine.params.n_hat:.1f}  "
              f"lambda={engine.params.lam:.3e}  walk_budget={engine.params.walk_budget}  "
              f"mode=batch")
        result = engine.sample_many_attributed(args.samples)
        shown = min(args.samples, 10)
        for i, peer in enumerate(result.peers[:shown]):
            print(f"sample {i}: peer {peer.peer_id:>6} point {peer.point:.6f}")
        if args.samples > shown:
            print(f"... {args.samples - shown} more")
        print(f"batch totals: trials {result.trials}  rounds {result.rounds}  "
              f"messages {result.cost.messages}  "
              f"messages/sample {result.cost.messages / args.samples:.1f}")
        return 0
    sampler = RandomPeerSampler(dht, rng=rng)
    print(f"n={args.n}  backend={args.backend}  n_hat={sampler.params.n_hat:.1f}  "
          f"lambda={sampler.params.lam:.3e}  walk_budget={sampler.params.walk_budget}")
    for i in range(args.samples):
        stats = sampler.sample_with_stats()
        print(f"sample {i}: peer {stats.peer.peer_id:>6} "
              f"point {stats.peer.point:.6f}  trials {stats.trials:>3}  "
              f"messages {stats.cost.messages:>5}")
    return 0


def _cmd_uniformity(args) -> int:
    if args.n < 2 or args.draws < args.n:
        print("error: need --n >= 2 and --draws >= --n", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    dht = IdealDHT.random(args.n, rng)
    uniform = RandomPeerSampler(dht, rng=rng)
    naive = NaiveSampler(dht, rng)
    u_counts = Counter(uniform.sample().peer_id for _ in range(args.draws))
    n_counts = Counter(naive.sample().peer_id for _ in range(args.draws))
    u_chi = chi_square_uniform([u_counts.get(i, 0) for i in range(args.n)])
    n_chi = chi_square_uniform([n_counts.get(i, 0) for i in range(args.n)])
    print(f"{args.draws} draws over n={args.n} peers")
    print(f"king-saia : chi2 p={u_chi.p_value:.4f}  "
          f"max/min={max_min_ratio([u_counts.get(i, 0) + 1 for i in range(args.n)]):.1f}")
    print(f"naive h(U): chi2 p={n_chi.p_value:.3e}  "
          f"max/min={max_min_ratio([n_counts.get(i, 0) + 1 for i in range(args.n)]):.1f}")
    return 0


def _cmd_chord(args) -> int:
    if args.n < 1 or args.samples < 1:
        print("error: --n and --samples must be positive", file=sys.stderr)
        return 2
    if args.n > (1 << args.m):
        print("error: identifier space too small for --n", file=sys.stderr)
        return 2
    net = ChordNetwork.build(args.n, m=args.m, rng=random.Random(args.seed))
    dht = net.dht()
    sampler = RandomPeerSampler(dht, rng=random.Random(args.seed + 1))
    print(f"chord: n={args.n}, m={args.m}, ring correct={net.ring_is_correct()}")
    total_msgs = 0
    for i in range(args.samples):
        stats = sampler.sample_with_stats()
        total_msgs += stats.cost.messages
        print(f"sample {i}: node {stats.peer.peer_id:>8}  trials {stats.trials:>3}  "
              f"messages {stats.cost.messages:>5}")
    print(f"mean messages/sample: {total_msgs / args.samples:.1f}")
    return 0


def _cmd_serve(args) -> int:
    if args.n < 1 or args.shards < 1 or args.requests < 1:
        print("error: --n, --shards and --requests must be positive", file=sys.stderr)
        return 2
    if args.rate <= 0 or args.max_batch < 1 or args.max_queue < 1:
        print("error: --rate must be positive, --max-batch/--max-queue at least 1",
              file=sys.stderr)
        return 2
    try:
        service = build_service(
            n=args.n,
            shards=args.shards,
            substrate=args.substrate,
            seed=args.seed,
            chord_m=args.chord_m,
            kad_bits=args.kad_bits,
            kad_k=args.kad_k,
            policy=args.policy,
            dispatch=args.dispatch,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
        )
    except ValueError as exc:  # e.g. chord id space too small for --n
        print(f"error: {exc}", file=sys.stderr)
        return 2
    generator = build_load(
        service, rate=args.rate, total=args.requests, seed=args.seed
    )
    generator.start()
    service.run()
    s = service.summary()
    print(f"serve: n={args.n}/shard  shards={args.shards}  substrate={args.substrate}  "
          f"dispatch={args.dispatch}  policy={args.policy}")
    batching = (
        f"micro-batch: max_batch={args.max_batch}"
        if args.dispatch == "batch"
        else "per-request dispatch"
    )
    print(f"offered {args.requests} requests at rate {args.rate:g} ({batching})")
    print(f"completed {s['completed']}  rejected {s['rejected']}  "
          f"elapsed {s['elapsed']:.1f}  throughput {s['throughput']:.3f} req/unit")
    for name in ("queue_latency", "service_latency", "total_latency"):
        lat = s["latency"][name]
        print(f"{name:>16}: mean {lat['mean']:.2f}  p50 {lat['p50']:.2f}  "
              f"p95 {lat['p95']:.2f}  p99 {lat['p99']:.2f}")
    bs = s["batch_size"]
    print(f"      batch_size: mean {bs['mean']:.1f}  p99 {bs['p99']:.0f}  "
          f"batches {bs['count']}")
    for shard_id, shard in s["shards"].items():
        print(f"shard {shard_id}: completed {shard['completed']:>6}  "
              f"rejected {shard['rejected']:>6}  batches {shard['batches']:>5}  "
              f"throughput {shard.get('throughput', 0.0):.3f}")
    return 0


def _run_fault_preset(args) -> int:
    """The outage arm of ``scenario run``: fault presets, recovery report."""
    churn_only = {
        "requests": args.requests,
        "rate": args.rate,
        "churn-rate": args.churn_rate,
        "crash-fraction": args.crash_fraction,
        "stabilize-interval": args.stabilize_interval,
        "adversary": args.adversary,
        "lie": args.lie,
        "committee-size": args.committee_size,
        "load-shape": args.load_shape,
        "key-skew": args.key_skew,
    }
    stray = sorted(flag for flag, value in churn_only.items() if value is not None)
    if stray:
        print(
            f"error: --{', --'.join(stray)} only apply to churn presets, "
            f"not the outage preset {args.preset!r}",
            file=sys.stderr,
        )
        return 2
    overrides = {
        key: value
        for key, value in (
            ("backend", args.backend),
            ("transport", args.transport),
            ("n", args.n),
            ("seed", args.seed),
        )
        if value is not None
    }
    try:
        spec = fault_preset(args.preset, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_fault_scenario(spec)
    killed = result.population_start - result.population_after_fault
    print(f"fault scenario {spec.name} on {spec.backend}: n={spec.n}, "
          f"{spec.fault} ({killed} nodes lost)" if killed
          else f"fault scenario {spec.name} on {spec.backend}: n={spec.n}, "
          f"{spec.fault} (no nodes lost)")
    for phase in (result.baseline, result.outage, result.post):
        print(f"  {phase.phase:>8}: {phase.correct}/{phase.probes} correct, "
              f"{phase.wrong} wrong, {phase.failed} failed, "
              f"{phase.messages_per_probe:.1f} msgs/probe")
    rounds = "budget exhausted" if result.recovery_rounds is None else (
        f"{result.recovery_rounds} maintenance rounds")
    print(f"  recovery: {rounds}, {result.recovery_messages} repair messages, "
          f"outage error rate {result.outage_error_rate:.2f}, "
          f"outage msgs/probe x{result.msgs_inflation_outage:.2f} vs baseline")
    if spec.transport == "async":
        sim_time = ("n/a" if result.recovery_sim_time is None
                    else f"{result.recovery_sim_time:.1f}")
        hop = result.hop_latency or {}
        print(f"  async: recovery sim-time {sim_time}, hop RTT "
              f"p50 {hop.get('p50', float('nan')):.2f} / "
              f"p99 {hop.get('p99', float('nan')):.2f} "
              f"over {hop.get('count', 0)} deliveries")
    print(f"  recovered: {result.recovered}  (wall {result.wall_seconds:.2f}s)")
    if args.out is not None:
        write_bench_json(args.out, result.to_record())
        print(f"wrote {args.out}")
    return 0 if result.recovered else 1


def _cmd_scenario(args) -> int:
    if args.scenario_command == "list":
        for name in sorted(PRESETS):
            spec = PRESETS[name]
            regime = (
                f"churn {spec.churn_rate:g}/unit/shard, crash {spec.crash_fraction:g}, "
                f"stabilize every {spec.stabilize_interval:g}"
                if spec.churning
                else "no churn (static control)"
            )
            if spec.adversarial:
                regime = (
                    f"{spec.adv_fraction:.0%} Byzantine peers "
                    f"({spec.adv_strategy} lies)"
                )
            elif spec.load_shape != "constant" or spec.key_skew > 0:
                regime = (
                    f"{spec.load_shape} load x{1 + spec.shape_amplitude:g}, "
                    f"Zipf {spec.key_skew:g} keys"
                )
            print(f"{name:>14}: n={spec.n} x {spec.shards} shards, "
                  f"{spec.requests} requests at rate {spec.rate:g} -- {regime}")
        for name in sorted(FAULT_PRESETS):
            spec = FAULT_PRESETS[name]
            outage = (
                f"kill {spec.kill_fraction:.0%} ({spec.region})"
                if spec.fault == "mass-kill"
                else f"{spec.partition_groups}-way {spec.partition_mode} partition "
                     f"for {spec.partition_duration:g} time units"
            )
            print(f"{name:>14}: n={spec.n} on {spec.backend}, {outage} -- "
                  f"outage lab (time-to-recovery)")
        return 0
    if args.preset in FAULT_PRESETS:
        return _run_fault_preset(args)
    overrides = {
        key: value
        for key, value in (
            ("backend", args.backend),
            ("transport", args.transport),
            ("n", args.n),
            ("requests", args.requests),
            ("rate", args.rate),
            ("churn_rate", args.churn_rate),
            ("crash_fraction", args.crash_fraction),
            ("stabilize_interval", args.stabilize_interval),
            ("adv_fraction", args.adversary),
            ("adv_strategy", args.lie),
            ("committee_size", args.committee_size),
            ("load_shape", args.load_shape),
            ("key_skew", args.key_skew),
            # --seed is the CLI's global flag and, as in every other
            # subcommand, always applies -- it deliberately overrides
            # the preset's own seed (both default to 0 today).
            ("seed", args.seed),
        )
        if value is not None
    }
    try:
        spec = preset(args.preset, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_scenario(spec)
    results_table([result], title=f"scenario {spec.name}").show()
    print(f"sim time {result.sim_time:.1f}  wall {result.wall_seconds:.2f}s  "
          f"churn events {result.churn_events}  "
          f"rings recovered {sum(s.ring_correct_after_recovery for s in result.shards)}"
          f"/{spec.shards}")
    adv = result.adversary
    if adv is not None:
        committee = adv["committee"]
        empirical = committee["empirical_capture"]
        analytic = committee["analytic_capture"]
        print(f"adversary: {adv['byzantine_total']} Byzantine "
              f"({spec.adv_fraction:.0%}, {adv['strategy']} lies), "
              f"captured {adv['captured_draws']}/{adv['draws']} draws "
              f"({(adv['capture_rate'] or 0.0):.1%}); committee capture "
              f"{'n/a' if empirical is None else f'{empirical:.1%}'} empirical "
              f"vs {'n/a' if analytic is None else f'{analytic:.1%}'} "
              f"analytic-uniform over {committee['elections']} elections "
              f"of {committee['size']}")
    if result.truncated:
        print("warning: max_sim_time tripped before the load drained", file=sys.stderr)
    if args.out is not None:
        write_bench_json(args.out, results_record([result], seed=spec.seed))
        print(f"wrote {args.out}")
    # Under census/eclipse lies the rings may legitimately never verify
    # correct (that is the attack working), so an adversarial run
    # succeeds when it drains -- capture itself is the measurement.
    healthy = not result.truncated and (spec.adversarial or result.ring_recovered)
    return 0 if healthy else 1


def _cmd_trace(args) -> int:
    """Traced scenario run: spans to disk, critical path to the console."""
    try:
        policy = parse_policy(args.sample)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overrides = {
        key: value
        for key, value in (
            ("backend", args.backend),
            ("n", args.n),
            ("requests", args.requests),
            ("rate", args.rate),
            ("seed", args.seed),
        )
        if value is not None
    }
    try:
        spec = preset(args.preset, **overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer(policy)
    result = run_scenario(spec, tracer=tracer)
    results_table([result], title=f"traced scenario {spec.name}").show()
    report = analyze(tracer)
    critical_path_table(report).show()
    if report.hop_profiles:
        hop_table(report).show()
    if args.slowest > 0:
        slowest_table(report, args.slowest).show()
    s = tracer.summary()
    print(f"tracing: policy {s['policy']}  requests traced "
          f"{s['requests_traced']}/{s['requests_seen']}  "
          f"batches {s['batches']}  spans {s['spans']}")
    jsonl = write_jsonl(tracer, args.out_dir / "trace.jsonl")
    chrome = write_chrome_trace(tracer, args.out_dir / "trace.chrome.json")
    prom = args.out_dir / "metrics.prom"
    prom.write_text(prometheus_text(tracer.registries))
    print(f"wrote {jsonl}, {chrome}, {prom}")
    if result.truncated:
        print("warning: max_sim_time tripped before the load drained", file=sys.stderr)
    return 0 if (result.ring_recovered and not result.truncated) else 1


def _cmd_faults(args) -> int:
    if args.faults_command == "list":
        print("injectors (compose them in a FaultPlan; see repro.faults):")
        for name, (cls, summary) in sorted(INJECTORS.items()):
            print(f"  {name:>14}: {summary}  [{cls.__name__}]")
        print("outage presets (run with: repro scenario run --preset NAME):")
        for name in sorted(FAULT_PRESETS):
            spec = FAULT_PRESETS[name]
            outage = (
                f"kill {spec.kill_fraction:.0%} of n={spec.n} in one instant"
                if spec.fault == "mass-kill"
                else f"split n={spec.n} into {spec.partition_groups} groups "
                     f"({spec.partition_mode}) for {spec.partition_duration:g} "
                     f"time units, then heal"
            )
            print(f"  {name:>14}: {outage}; retry {spec.retry_attempts} attempts, "
                  f"base {spec.retry_base_delay:g}, factor {spec.retry_factor:g}, "
                  f"jitter {spec.retry_jitter:g}")
        return 0
    raise AssertionError(f"unhandled faults subcommand {args.faults_command!r}")


def _cmd_bench(args) -> int:
    # Benchmarks own their argument handling; rebuild their argv so the
    # CLI stays a thin launcher and the flags cannot drift apart.
    argv = ["--seed", str(args.seed)]
    if args.quick:
        argv.append("--quick")
    if args.out is not None:
        argv += ["--out", str(args.out)]
    if getattr(args, "sizes", None):
        argv += ["--sizes", *map(str, args.sizes)]
    if args.bench_command == "async":
        from .bench import async_net

        if args.n is not None:
            argv += ["--n", str(args.n)]
        return async_net.main(argv)
    if args.bench_command == "backends":
        from .bench import backends

        if args.samples is not None:
            argv += ["--samples", str(args.samples)]
        return backends.main(argv)
    if args.bench_command == "scale":
        from .bench import scale

        if args.lookups is not None:
            argv += ["--lookups", str(args.lookups)]
        return scale.main(argv)
    from .bench import chord_batch

    if args.k is not None:
        argv += ["--k", str(args.k)]
    return chord_batch.main(argv)


_COMMANDS = {
    "estimate": _cmd_estimate,
    "sample": _cmd_sample,
    "uniformity": _cmd_uniformity,
    "chord": _cmd_chord,
    "serve": _cmd_serve,
    "scenario": _cmd_scenario,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
