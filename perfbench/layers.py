"""The traced run's layer boundaries and the per-layer metrics read from them.

Layers are the program's modules.  One wrapper per boundary records a
span around calls into that layer's public functions:

=================  ===================================================
span               wrapped function(s)
=================  ===================================================
service.submit     ``SamplingService.submit``
service.dispatch   ``BatchDispatch.execute``
sim.run            ``Simulator.run``
core.sample        ``BatchSampler.sample_many_attributed``
core.estimate      ``estimate_n`` as the engine calls it
dht.build          ``IdealDHT.from_points``, ``ChordNetwork.build``,
                   ``KademliaNetwork.build``
dht.h              ``h`` and ``resolve_many`` of the overlay adapters
dht.next           ``next`` of every substrate
dht.lookup         ``ChordNode.lookup``
dht.snapshot       ``ChordNetwork.snapshot``
dht.stabilize      ``ChordNetwork.stabilize_round``
dht.membership     ``ChordNetwork.join_node``/``crash_node``/``leave_node``
sim.network.rpc    ``RpcTransport.rpc_from`` (every RPC, handler included)
=================  ===================================================

Counts come from the program's own counters (``CostMeter``,
``transport.metrics``, ``batch_stats``, ``snapshot_builds``/
``snapshot_patches``, ``Simulator.events_executed``, the shard workers
and ``stale_trials``), from the values the wrapped calls return, and
from span counts where the program keeps no counter.
"""

from __future__ import annotations

import statistics

from repro.analysis.theory import expected_trials
from repro.core import engine
from repro.core.engine import BatchSampler
from repro.dht.chord.network import ChordDHT, ChordNetwork
from repro.dht.chord.node import ChordNode
from repro.dht.ideal import IdealDHT
from repro.dht.kademlia.network import KademliaDHT, KademliaNetwork
from repro.service import BatchDispatch, RequestStatus, SamplingService
from repro.sim.kernel import Simulator
from repro.sim.network import RpcTransport

from .spans import SpanRecorder
from .workloads import Served, System, percentile

__all__ = ["LayerStats", "install", "layer_metrics"]


class LayerStats:
    """Values read from the wrapped calls themselves, not from spans."""

    def __init__(self):
        self.trials_by_sampler: dict = {}
        self.rounds = 0
        self.draws = 0
        self.dispatches = 0
        self.h_messages = 0
        self._h_depth = 0

    def core_leave(self, args, result, token) -> None:
        if result is not None:
            sampler = args[0]
            self.trials_by_sampler[sampler] = self.trials_by_sampler.get(sampler, 0) + result.trials
            self.rounds += result.rounds
            self.draws += len(result.peers)
            self.dispatches += 1

    def h_enter(self, args):
        # Only the outermost h boundary counts: Kademlia's resolve_many
        # calls h once per point.
        self._h_depth += 1
        return args[0].cost.messages if self._h_depth == 1 else None

    @property
    def trials(self) -> int:
        return sum(self.trials_by_sampler.values())

    def h_leave(self, args, result, token) -> None:
        self._h_depth -= 1
        if token is not None:
            self.h_messages += args[0].cost.messages - token


def install(rec: SpanRecorder, stats: LayerStats) -> None:
    """Wrap every layer boundary; ``rec.restore()`` removes them."""
    rec.patch(SamplingService, "submit", "service.submit")
    rec.patch(BatchDispatch, "execute", "service.dispatch")
    rec.patch(Simulator, "run", "sim.run")
    rec.patch(BatchSampler, "sample_many_attributed", "core.sample", leave=stats.core_leave)
    rec.patch(engine, "estimate_n", "core.estimate")
    for owner, attr in ((IdealDHT, "from_points"), (ChordNetwork, "build"), (KademliaNetwork, "build")):
        rec.patch(owner, attr, "dht.build")
    for owner in (ChordDHT, KademliaDHT):
        for attr in ("h", "resolve_many"):
            rec.patch(owner, attr, "dht.h", enter=stats.h_enter, leave=stats.h_leave)
    for owner in (IdealDHT, ChordDHT, KademliaDHT):
        rec.patch(owner, "next", "dht.next")
    rec.patch(ChordNode, "lookup", "dht.lookup")
    rec.patch(ChordNetwork, "snapshot", "dht.snapshot")
    rec.patch(ChordNetwork, "stabilize_round", "dht.stabilize")
    for attr in ("join_node", "crash_node", "leave_node"):
        rec.patch(ChordNetwork, attr, "dht.membership")
    rec.patch(RpcTransport, "rpc_from", "sim.network.rpc")


def layer_metrics(
    rec: SpanRecorder,
    stats: LayerStats,
    system: System,
    served: Served,
    untraced_wall: float,
) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``.

    ``trace.overhead`` compares set-up plus serve wall time, traced over
    untraced; both leave out the serve loop's reference timing.
    """
    spans = rec.by_name()

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def count(name):
        return spans.get(name, {}).get("count", 0)

    service = system.service
    shards = service.shards
    ok = [r for r in service.responses if r.status is RequestStatus.OK]
    waits = sorted(r.queue_latency for r in ok)
    # A batch's responses share shard and completion time; its service
    # latency is the time the shard was busy with it.
    busy = {(r.shard_id, r.completion_time): r.service_latency for r in ok}
    span = max(r.completion_time for r in ok)
    dispatch_ms = sorted(d * 1e3 for d in rec.durations("service.dispatch"))
    draws = service.metrics.completed
    batches = sum(s.batches_served for s in shards)
    samplers = [s.dispatch.sampler for s in shards]
    h_calls = sum(c.h_calls for c in served.cost)
    next_calls = sum(c.next_calls for c in served.cost)
    # Theorem 6: a trial succeeds with probability exactly n * lambda, so
    # trials / expected_trials counts the successes a shard should see.
    theory = [expected_trials(len(m), s.params) for m, s in zip(system.members, samplers)]
    expected_successes = sum(
        stats.trials_by_sampler.get(s, 0) / t for s, t in zip(samplers, theory)
    )
    if count("dht.h"):
        h_msgs_per_call = stats.h_messages / max(1, h_calls)
    else:
        # The ideal oracle resolves h inside the core kernel at its unit cost.
        h_msgs_per_call = float(system.substrates[0].bulk_op_costs()[0])
    batch = [getattr(dht, "batch_stats", None) for dht in system.substrates]
    lockstep = sum(b.lockstep for b in batch if b is not None)
    resolved = sum(b.lockstep + b.percall + b.delegated for b in batch if b is not None)
    transports = [net.transport.metrics for net in system.networks]

    def counter(name):
        return sum(t.counter(name).value for t in transports)

    serve_s = total_s("bench.serve")
    walk_s = self_s("dht.next") + self_s("sim.network.rpc")
    root = spans["bench"]["total_s"]
    accounted = sum(row["self_s"] for row in spans.values())
    return {
        # service
        "service.submit_s": (self_s("service.submit"), "s"),
        "service.dispatch_ms_p50": (percentile(dispatch_ms, 50) if dispatch_ms else 0.0, "ms"),
        "service.dispatch_ms_p99": (percentile(dispatch_ms, 99) if dispatch_ms else 0.0, "ms"),
        "service.batch_size_mean": (draws / batches if batches else 0.0, "requests"),
        "service.utilization": (sum(busy.values()) / (span * len(shards)), "fraction"),
        "service.queue_wait_p50": (percentile(waits, 50), "sim_units"),
        "service.queue_wait_p99": (percentile(waits, 99), "sim_units"),
        "service.dispatch_failures": (sum(s.dispatch_failures for s in shards), "count"),
        "service.retries": (sum(s.retries for s in shards), "count"),
        # sim
        "sim.events": (served.events, "count"),
        "sim.run_self_s": (self_s("sim.run"), "s"),
        # core
        "core.self_s": (self_s("core.sample"), "s"),
        "core.trials_per_draw": (stats.trials / max(1, stats.draws), "trials"),
        "core.trials_theory": (statistics.mean(theory), "trials"),
        "core.surplus_frac": (
            max(0.0, 1.0 - stats.draws / expected_successes) if expected_successes else 0.0,
            "fraction",
        ),
        "core.rounds_per_dispatch": (stats.rounds / max(1, stats.dispatches), "rounds"),
        "core.walk_hops_per_trial": (next_calls / max(1, stats.trials), "hops"),
        "core.walk_budget": (samplers[0].params.walk_budget, "hops"),
        "core.stale_trials": (sum(s.stale_trials for s in samplers), "count"),
        "core.estimate_s": (total_s("core.estimate"), "s"),
        # dht
        "dht.build_s": (total_s("dht.build"), "s"),
        "dht.h_calls": (h_calls, "count"),
        "dht.h_self_s": (self_s("dht.h"), "s"),
        "dht.h_msgs_per_call": (h_msgs_per_call, "msgs"),
        "dht.lockstep_share": (lockstep / resolved if resolved else 0.0, "fraction"),
        "dht.delegated": (sum(b.delegated for b in batch if b is not None), "count"),
        "dht.next_calls": (next_calls, "count"),
        "dht.next_self_s": (self_s("dht.next"), "s"),
        "dht.lookup_calls": (count("dht.lookup"), "count"),
        "dht.lookup_self_s": (self_s("dht.lookup"), "s"),
        "dht.snapshot_s": (total_s("dht.snapshot"), "s"),
        "dht.snapshot_builds": (sum(getattr(net, "snapshot_builds", 0) for net in system.networks), "count"),
        "dht.snapshot_patches": (sum(getattr(net, "snapshot_patches", 0) for net in system.networks), "count"),
        "dht.stabilize_rounds": (count("dht.stabilize"), "count"),
        "dht.stabilize_s": (total_s("dht.stabilize"), "s"),
        "dht.membership_events": (count("dht.membership"), "count"),
        "dht.membership_s": (total_s("dht.membership"), "s"),
        # sim.network
        "sim.network.rpc_calls": (counter("rpc.calls"), "count"),
        "sim.network.rpc_self_s": (self_s("sim.network.rpc"), "s"),
        "sim.network.messages": (counter("messages"), "count"),
        "sim.network.timeouts": (counter("rpc.timeouts"), "count"),
        "sim.network.retries": (counter("rpc.retries"), "count"),
        # the trace itself
        "trace.overhead": ((total_s("bench.setup") + served.wall_s) / untraced_wall, "ratio"),
        "trace.wall_s": (root, "s"),
        "trace.serve_s": (serve_s, "s"),
        "trace.unattributed_s": (self_s("bench") + self_s("bench.setup") + self_s("bench.serve"), "s"),
        "trace.accounted_frac": (accounted / root, "fraction"),
        "trace.spans": (len(rec), "count"),
        "share.walk": (walk_s / serve_s, "fraction"),
        "share.h": (self_s("dht.h") / serve_s, "fraction"),
        "share.core": (self_s("core.sample") / serve_s, "fraction"),
    }
