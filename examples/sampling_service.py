#!/usr/bin/env python
"""Sampling-as-a-service walkthrough: the serving layer end to end.

Builds a sharded sampling service (two ideal-DHT substrates behind
micro-batching queues), drives it with open-loop Poisson traffic on the
deterministic simulation clock, then deliberately overloads it to show
admission control turning excess load into explicit rejections instead
of unbounded queues.

Walkthrough steps:

1. build the service: substrates, router, admission, metrics from one seed;
2. steady-state traffic: latency decomposed into queue vs. service time;
3. micro-batch vs. per-request dispatch on the same workload;
4. overload: bounded queues, counted rejections, tail latency.

Run:  PYTHONPATH=src python examples/sampling_service.py [n_peers]
"""

from __future__ import annotations

import sys

from repro.service import build_load, build_service


def drive(service, rate: float, total: int, seed: int) -> dict:
    """Offer ``total`` Poisson arrivals and drain the service."""
    generator = build_load(service, rate=rate, total=total, seed=seed)
    generator.start()
    service.run()
    return service.summary()


def show_latency(summary: dict) -> None:
    for name in ("queue_latency", "service_latency", "total_latency"):
        lat = summary["latency"][name]
        print(
            f"   {name:>16}: mean {lat['mean']:7.2f}  "
            f"p50 {lat['p50']:7.2f}  p99 {lat['p99']:7.2f}"
        )


def main(n: int = 5000) -> None:
    seed = 7

    # --- 1. build: two substrate shards behind micro-batching queues ----
    print(f"building a 2-shard sampling service (n={n} peers per shard)")
    service = build_service(
        n=n, shards=2, seed=seed, max_batch=32, max_queue=256
    )
    print(f"   router policy: {service.router.policy}, "
          f"admission bound: {service.admission.max_queue_depth}/shard")

    # --- 2. steady state: a rate the service can sustain ----------------
    summary = drive(service, rate=0.5, total=2000, seed=seed)
    print(f"\nsteady state: completed {summary['completed']}, "
          f"rejected {summary['rejected']}, "
          f"throughput {summary['throughput']:.3f} req/unit")
    print(f"   mean micro-batch size {summary['batch_size']['mean']:.1f} "
          f"({summary['batch_size']['count']} dispatches for "
          f"{summary['completed']} requests)")
    show_latency(summary)

    # --- 3. dispatch modes: what batching buys on the same workload -----
    print("\nmicro-batch vs per-request dispatch (same traffic):")
    for dispatch, max_batch in (("batch", 32), ("scalar", 1)):
        svc = build_service(n=n, shards=2, seed=seed,
                            dispatch=dispatch, max_batch=max_batch)
        s = drive(svc, rate=0.5, total=1000, seed=seed)
        batches = sum(sh["batches"] for sh in s["shards"].values())
        print(f"   {dispatch:>6}: {batches:>4} dispatches, "
              f"total p99 {s['latency']['total_latency']['p99']:8.2f}, "
              f"sim throughput {s['throughput']:.3f} req/unit")

    # --- 4. overload: open-loop traffic beyond capacity -----------------
    print("\noverload (10x the sustainable rate):")
    hot = build_service(n=n, shards=2, seed=seed, max_queue=64)
    s = drive(hot, rate=5.0, total=3000, seed=seed)
    accounted = s["completed"] + s["rejected"]
    print(f"   completed {s['completed']}, rejected {s['rejected']} "
          f"(every one of the {accounted} requests accounted for)")
    print(f"   queues stayed bounded: admission caps load at "
          f"{hot.admission.max_queue_depth}/shard; rejection is an explicit, "
          f"counted response")
    show_latency(s)
    print("\nsame seed => same assignments, latencies and counts, every run")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5000)
