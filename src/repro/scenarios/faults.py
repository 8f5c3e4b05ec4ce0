"""Fault scenarios: mass failure and partition healing, measured.

Where :mod:`repro.scenarios.runner` studies *gradual* membership churn
under serving load, this lab studies *structured outages*: a correlated
mass-kill that crashes a large fraction of the overlay in one instant,
or a network partition that splits reachability while every node stays
up.  The questions are the recovery ones:

- **time to recovery** -- how many maintenance rounds until lookups are
  all-correct again (the first stabilization round after which every
  probe of a fixed random set resolves to the oracle owner);
- **outage-window error rate** -- what fraction of lookups issued while
  the fault is live fail or return the wrong owner;
- **cost inflation** -- messages per lookup during the outage and after
  recovery, relative to the pre-fault baseline (retries, timeout
  probes and repair traffic all flow through the same meters).

A :class:`FaultScenarioSpec` pins one experiment; the fault itself is a
declarative :class:`~repro.faults.plan.FaultPlan` scheduled on the sim
clock.  One runner plays the experiment on either transport, which
chooses only how a probe resolves: the DHT adapter's ``h`` on the sync
one, the backend's event-driven lookup from the adapter's entry peer on
the async one; both retry as the spec's
:class:`~repro.faults.retry.RetryPolicy` decides.  Everything derives
from ``spec.seed`` through named RNG substreams, so two runs of the
same spec are bit-for-bit identical -- the equivalence test in
``tests/scenarios/test_fault_scenarios.py`` pins that.

Recovery is verified against the oracle membership: the owner of point
``x`` is the clockwise-nearest live id to ``target(x)``, which both
substrates promise to resolve.  Chord heals through successor-list
failover plus the network-level ring merge; Kademlia purges dead
contacts (oracle-assisted anti-entropy, modelling gossiped obituaries)
and rebuilds bucket coverage through refresh rounds.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
import time
from dataclasses import dataclass, field

from ..dht.api import PeerUnreachableError
from ..dht.chord.async_lookup import lookup_async
from ..dht.chord.network import ChordNetwork
from ..dht.idspace import point_to_target_id
from ..dht.kademlia.async_lookup import find_successor_async
from ..dht.kademlia.network import KademliaNetwork
from ..faults.plan import REGIONS, FaultPlan, MassKill, Partition
from ..faults.retry import RetryPolicy
from ..faults.state import PARTITION_MODES, FaultState
from ..sim.async_net import drive
from ..sim.kernel import Simulator
from ..sim.network import UniformLatency
from ..sim.rng import RngRegistry
from .spec import BACKENDS, TRANSPORTS

__all__ = [
    "FAULT_PRESETS",
    "FaultScenarioSpec",
    "FaultScenarioResult",
    "PhaseReport",
    "fault_preset",
    "run_fault_scenario",
]

#: The kinds of structured outage this lab drives end to end.
FAULTS = ("mass-kill", "partition")


@dataclass(frozen=True, slots=True)
class FaultScenarioSpec:
    """One structured-outage experiment, fully pinned and JSON-able."""

    name: str
    backend: str = "chord"  # which message-level overlay to wound
    fault: str = "mass-kill"
    #: ``sync`` runs the experiment on the call-and-return transport;
    #: ``async`` runs the same acts on the message-level transport
    #: (scheduled request/reply deliveries, real timeout events, jittered
    #: per-hop latency) and additionally reports wall-of-sim-clock
    #: recovery time plus per-hop RTT quantiles from actual deliveries.
    transport: str = "sync"
    #: Total-latency budget per logical probe, on either transport (see
    #: :attr:`~repro.faults.retry.RetryPolicy.deadline`); ``None``
    #: leaves retries bounded by attempts alone.
    retry_deadline: float | None = None
    # -- substrate shape --
    n: int = 10_000
    m: int = 20  # identifier bits
    kad_k: int = 20
    kad_alpha: int = 3
    successor_list_size: int = 16  # Chord failover depth (mass-kill armour)
    # -- the fault --
    inject_at: float = 10.0  # sim time the fault fires
    kill_fraction: float = 0.4  # mass-kill: fraction crashed in one instant
    region: str = "arc"  # victim placement: contiguous id arc or random
    partition_groups: int = 2
    partition_mode: str = "full"  # or "oneway" (requests cross, replies lost)
    partition_duration: float = 40.0  # sim time until the partition heals
    outage_rounds: int = 2  # maintenance rounds run while the fault is live
    # -- the retry discipline lookups run under --
    retry_attempts: int = 3
    retry_base_delay: float = 0.5
    retry_factor: float = 2.0
    retry_jitter: float = 0.1
    # -- measurement --
    probes: int = 64  # lookups per phase
    recovery_round_budget: int = 120  # maintenance rounds before giving up
    recovery_chunk: int = 4  # rounds between recovery probe sweeps
    seed: int = 0

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.fault not in FAULTS:
            raise ValueError(f"unknown fault {self.fault!r}; choose from {FAULTS}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; choose from {TRANSPORTS}"
            )
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}; choose from {REGIONS}")
        if self.partition_mode not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition mode {self.partition_mode!r}; "
                f"choose from {PARTITION_MODES}"
            )
        if self.n < 4:
            raise ValueError("fault scenarios need at least 4 nodes")
        if self.n > (1 << self.m):
            raise ValueError(f"identifier space 2^{self.m} too small for n={self.n}")
        if not 0.0 < self.kill_fraction < 1.0:
            raise ValueError("kill_fraction must be in (0, 1)")
        if self.partition_groups < 2:
            raise ValueError("a partition needs at least 2 groups")
        if self.probes < 1:
            raise ValueError("probes must be positive")
        if self.recovery_round_budget < 1 or self.recovery_chunk < 1:
            raise ValueError("recovery budget and chunk must be positive")
        if self.inject_at < 0 or self.partition_duration <= 0:
            raise ValueError("inject_at must be >= 0 and partition_duration > 0")
        self.retry_policy()  # RetryPolicy checks the retry fields

    def with_(self, **overrides) -> "FaultScenarioSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **overrides)

    def retry_policy(self) -> RetryPolicy:
        """The lookup retry discipline this spec pins."""
        return RetryPolicy(
            attempts=self.retry_attempts,
            base_delay=self.retry_base_delay,
            factor=self.retry_factor,
            jitter=self.retry_jitter,
            deadline=self.retry_deadline,
        )

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


#: The canonical outage regimes.  ``mass-failure`` is the acceptance
#: experiment -- kill 40% of a 10,000-node overlay in one instant and
#: demand full recovery; CI smokes it at a small ``n`` override.
#: ``partition-heal`` splits a live overlay in half long enough for
#: maintenance to wound the cross-group pointers, then heals the
#: partition and measures the merge back to one correct ring.
FAULT_PRESETS: dict[str, FaultScenarioSpec] = {
    "mass-failure": FaultScenarioSpec(
        name="mass-failure",
        fault="mass-kill",
        n=10_000,
        m=20,
        kill_fraction=0.4,
        region="arc",
    ),
    "partition-heal": FaultScenarioSpec(
        name="partition-heal",
        fault="partition",
        n=1_024,
        m=16,
        partition_groups=2,
        partition_mode="full",
        partition_duration=40.0,
        outage_rounds=3,
    ),
}


def fault_preset(name: str, **overrides) -> FaultScenarioSpec:
    """A named fault preset, optionally customised."""
    if name not in FAULT_PRESETS:
        raise KeyError(f"unknown fault preset {name!r}; choose from {sorted(FAULT_PRESETS)}")
    spec = FAULT_PRESETS[name]
    return spec.with_(**overrides) if overrides else spec


@dataclass(frozen=True, slots=True)
class PhaseReport:
    """One probe sweep: correctness and metered cost."""

    phase: str
    probes: int
    correct: int
    wrong: int  # resolved, but not to the oracle owner
    failed: int  # raised after exhausting the retry budget
    messages: int
    latency: float

    @property
    def error_rate(self) -> float:
        return (self.wrong + self.failed) / self.probes if self.probes else 0.0

    @property
    def messages_per_probe(self) -> float:
        return self.messages / self.probes if self.probes else 0.0

    def to_record(self) -> dict:
        rec = dataclasses.asdict(self)
        rec["error_rate"] = self.error_rate
        rec["messages_per_probe"] = self.messages_per_probe
        return rec


@dataclass(frozen=True)
class FaultScenarioResult:
    """Everything one fault scenario produced, JSON-ready."""

    spec: FaultScenarioSpec
    baseline: PhaseReport
    outage: PhaseReport
    post: PhaseReport
    recovery_rounds: int | None  # rounds until all-correct; None = budget blown
    recovery_messages: int  # repair traffic (maintenance + recovery probes)
    population_start: int
    population_after_fault: int
    fault_log: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: Async-transport extras (sync runs leave the defaults): sim-clock
    #: time from fault injection to the first all-correct sweep, and
    #: per-hop RTT quantiles computed from actual delivery instants.
    recovery_sim_time: float | None = None
    hop_latency: dict = field(default_factory=dict)

    @property
    def recovered(self) -> bool:
        """Did the overlay return to all-lookups-correct within budget?"""
        return self.recovery_rounds is not None and self.post.error_rate == 0.0

    @property
    def outage_error_rate(self) -> float:
        return self.outage.error_rate

    @property
    def msgs_inflation_outage(self) -> float | None:
        """Messages per lookup during the outage vs the baseline."""
        base = self.baseline.messages_per_probe
        return self.outage.messages_per_probe / base if base else None

    @property
    def msgs_inflation_post(self) -> float | None:
        base = self.baseline.messages_per_probe
        return self.post.messages_per_probe / base if base else None

    def to_record(self) -> dict:
        return {
            "spec": self.spec.to_record(),
            "recovered": self.recovered,
            "recovery_rounds": self.recovery_rounds,
            "recovery_messages": self.recovery_messages,
            "outage_error_rate": self.outage_error_rate,
            "msgs_inflation_outage": self.msgs_inflation_outage,
            "msgs_inflation_post": self.msgs_inflation_post,
            "population_start": self.population_start,
            "population_after_fault": self.population_after_fault,
            "phases": {
                "baseline": self.baseline.to_record(),
                "outage": self.outage.to_record(),
                "post": self.post.to_record(),
            },
            "fault_log": list(self.fault_log),
            "counters": dict(self.counters),
            "wall_seconds": self.wall_seconds,
            "recovery_sim_time": self.recovery_sim_time,
            "hop_latency": dict(self.hop_latency),
        }


# -- the runner -------------------------------------------------------------


def _build_network(spec: FaultScenarioSpec, sim: Simulator, rngs: RngRegistry):
    ring_rng = random.Random(rngs.fresh("ring").getrandbits(64))
    loss_rng = rngs.stream("transport.loss")
    extra: dict = {}
    if spec.transport == "async":
        # The async experiment wants per-hop quantiles worth reporting:
        # jittered one-way latency (mean 1.0, like the sync default's
        # constant) so delivery order genuinely races timeouts.  Only
        # async runs take this branch; sync builds stay bit-identical.
        extra = {"async_transport": True, "latency": UniformLatency(0.5, 1.5)}
    if spec.backend == "kademlia":
        return KademliaNetwork.build(
            spec.n,
            m=spec.m,
            k=spec.kad_k,
            alpha=spec.kad_alpha,
            rng=ring_rng,
            sim=sim,
            loss_rng=loss_rng,
            **extra,
        )
    return ChordNetwork.build(
        spec.n,
        m=spec.m,
        rng=ring_rng,
        sim=sim,
        successor_list_size=spec.successor_list_size,
        loss_rng=loss_rng,
        **extra,
    )


def _build_plan(spec: FaultScenarioSpec, base: float) -> FaultPlan:
    """The spec's fault timeline, offset by ``base`` sim-clock units.

    The runner arms it at the clock position after the baseline sweep:
    async probes advance the clock (deliveries are real events), sync
    ones leave it at 0.
    """
    if spec.fault == "mass-kill":
        event = MassKill(
            at=base + spec.inject_at, fraction=spec.kill_fraction, region=spec.region
        )
    else:
        event = Partition(
            at=base + spec.inject_at,
            duration=spec.partition_duration,
            groups=spec.partition_groups,
            mode=spec.partition_mode,
            region=spec.region,
        )
    return FaultPlan(events=(event,))


def _oracle_owner(sorted_ids: list[int], target: int) -> int:
    """The clockwise-nearest live id at or after ``target`` (wrapping)."""
    i = bisect.bisect_left(sorted_ids, target)
    return sorted_ids[i % len(sorted_ids)]


def _probe_sweep(phase: str, resolve, network, points, m: int) -> PhaseReport:
    """Resolve every probe point and grade it against the live oracle.

    ``resolve(x)`` returns the owner id of point ``x``, or None when the
    probe failed after its retries.  The oracle is read after each probe,
    so each lookup is graded against the membership of the instant it
    ended: async fault events (the kill, a partition heal) fire
    mid-probe, and the recovery loop interleaves sweeps with maintenance.
    A sync probe must change no membership, so its grade is the same in
    either order.  The epoch-memoized ``sorted_ids`` makes the
    steady-state read O(1).
    """
    transport = network.transport
    before_msgs = transport.messages_sent
    before_time = transport.elapsed
    correct = wrong = failed = 0
    for x in points:
        got = resolve(x)
        expected = _oracle_owner(network.sorted_ids(), point_to_target_id(x, m))
        if got is None:
            failed += 1
        elif got == expected:
            correct += 1
        else:
            wrong += 1
    return PhaseReport(
        phase=phase,
        probes=len(points),
        correct=correct,
        wrong=wrong,
        failed=failed,
        messages=transport.messages_sent - before_msgs,
        latency=transport.elapsed - before_time,
    )


def _sync_resolver(dht):
    """Probes as ``dht.h`` calls: the adapter's own retries, with its
    repair between attempts, charge the waits without waiting them."""

    def resolve(x: float) -> int | None:
        try:
            return dht.h(x).peer_id
        except PeerUnreachableError:
            return None

    return resolve


def _async_resolver(spec: FaultScenarioSpec, dht, network, retry_rng):
    """Probes that ride the event clock.

    Each attempt runs the backend's continuation-driven lookup
    (:func:`~repro.dht.chord.async_lookup.lookup_async` /
    :func:`~repro.dht.kademlia.async_lookup.find_successor_async`) from
    the adapter's entry peer to completion via
    :func:`~repro.sim.async_net.drive`, so scheduled fault events fire
    *during* probes when their time comes.  The spec's policy decides
    each retry from the clock time the failed attempts took plus the
    waits, and the waits elapse on the clock.
    """
    sim = network.sim
    transport = network.transport
    policy = spec.retry_policy()
    start = find_successor_async if spec.backend == "kademlia" else lookup_async

    def resolve(x: float) -> int | None:
        target = point_to_target_id(x, spec.m)
        failure = 0
        spent = 0.0
        while True:
            entry = dht.entry_id if dht.entry_is_alive else dht.refresh_entry()
            started = sim.now
            try:
                return drive(sim, start(network.nodes[entry], target)).node_id
            except PeerUnreachableError:
                failure += 1
                spent += sim.now - started
                wait = policy.backoff(failure, spent, retry_rng)
                if wait is None:
                    return None
                transport.metrics.counter("rpc.retries").increment()
                if wait > 0:
                    # The wait elapses on the clock (in-flight events
                    # proceed underneath) and is charged as the adapters
                    # charge theirs.
                    transport.charge_delay(wait)
                    sim.run(until=sim.now + wait)
                spent += wait

    return resolve


def _hop_quantiles(rtts) -> dict:
    """Per-hop RTT quantiles from the transport's delivery log."""
    if not rtts:
        return {}
    ordered = sorted(rtts)
    last = len(ordered) - 1

    def q(p: float) -> float:
        return ordered[min(last, int(p * len(ordered)))]

    return {
        "count": len(ordered),
        "p50": q(0.50),
        "p95": q(0.95),
        "p99": q(0.99),
        "mean": sum(ordered) / len(ordered),
    }


def run_fault_scenario(spec: FaultScenarioSpec) -> FaultScenarioResult:
    """Drive one structured outage end to end and report on it.

    Five acts: (1) baseline probes on the healthy overlay; (2) the fault
    plan fires on the sim clock; (3) outage probes -- plus a few
    maintenance rounds, modelling repair that runs *while* the fault is
    live -- measure the damage; (4) the fault clears (a partition heals;
    a mass-kill is permanent) and maintenance rounds run in chunks until
    a full probe sweep is all-correct, which defines time-to-recovery;
    (5) a fresh probe sweep on the recovered overlay pins the
    post-recovery contract: 100% oracle-correct lookups.

    The acts are the same on both transports; the transport chooses only
    how one probe resolves (:func:`_sync_resolver`,
    :func:`_async_resolver`).  Async probes advance the clock (every
    request and reply is a scheduled delivery), so the fault plan is
    armed relative to the clock position *after* the baseline sweep --
    ``inject_at`` keeps its meaning of "this long after the healthy
    measurement"; sync probes schedule nothing, so there the clock still
    reads 0.  Maintenance (``stabilize_round`` / ``run_stabilization``)
    runs off the event clock on both: repair cost lands on the same
    meters, but recovery *time* is defined by probe traffic.  An async
    result carries two more observables: ``recovery_sim_time`` (sim-clock
    span from injection to the first all-correct sweep) and
    ``hop_latency`` (RTT quantiles over every successful delivery's
    actual send-to-reply span).
    """
    start_wall = time.perf_counter()
    asynchronous = spec.transport == "async"
    rngs = RngRegistry(spec.seed)
    sim = Simulator()
    network = _build_network(spec, sim, rngs)
    faults = FaultState()
    network.transport.install_faults(faults)
    retry_rng = rngs.stream("lookup.retry")
    dht = network.dht(retry_policy=spec.retry_policy(), retry_rng=retry_rng)
    if asynchronous:
        network.transport.rtt_log = []
        resolve = _async_resolver(spec, dht, network, retry_rng)
    else:
        resolve = _sync_resolver(dht)

    population_start = len(network.nodes)

    def sweep(phase: str, points: list[float]) -> PhaseReport:
        return _probe_sweep(phase, resolve, network, points, spec.m)

    def draw_points(stream: str) -> list[float]:
        rng = rngs.stream(stream)
        return [rng.random() for _ in range(spec.probes)]

    # Act 1: the healthy overlay.
    baseline = sweep("baseline", draw_points("probes.baseline"))

    # Act 2: arm the plan relative to now, then let the fault fire.
    base = sim.now
    plan = _build_plan(spec, base=base)
    fault_log = plan.schedule(sim, network, rngs.stream("fault.plan"))
    sim.run(until=base + spec.inject_at)
    population_after_fault = len(network.nodes)

    # Act 3: life during the outage.  Probes run against the raw damage
    # first; then a few maintenance rounds run while the fault is still
    # live -- real deployments do not pause repair during an outage, and
    # for partitions this is what wounds the cross-group pointers.
    outage = sweep("outage", draw_points("probes.outage"))
    for _ in range(spec.outage_rounds):
        network.stabilize_round()

    # Act 4: the fault clears; the overlay heals.  A partition's heal
    # event is already scheduled, so running the clock forward to its
    # instant is what clears it.  Kademlia needs a leg up in both
    # directions: after a mass-kill the oracle-assisted obituary purge
    # lets refresh rebuild coverage from live contacts instead of
    # discovering thousands of casualties one timeout at a time, and
    # after a partition long enough for both sides to evict each other
    # the tables share no cross-group entries at all, so every node
    # re-joins through a bootstrap peer (charged traffic; see
    # :meth:`KademliaNetwork.rebootstrap`).  Chord's analogue of both is
    # the ring-merge pass inside its stabilization rounds.
    heal_at = base + spec.inject_at + spec.partition_duration
    if spec.fault == "partition" and sim.now < heal_at:
        sim.run(until=heal_at)
    if spec.backend == "kademlia":
        if spec.fault == "mass-kill":
            network.purge_dead_contacts()
        elif spec.fault == "partition":
            network.rebootstrap()

    recovery_points = draw_points("probes.recovery")
    before_recovery_msgs = network.transport.messages_sent
    recovery_rounds: int | None = None
    recovery_sim_time: float | None = None
    rounds_used = 0
    while rounds_used < spec.recovery_round_budget:
        chunk = min(spec.recovery_chunk, spec.recovery_round_budget - rounds_used)
        network.run_stabilization(chunk)
        rounds_used += chunk
        if sweep("recovery", recovery_points).error_rate == 0.0:
            recovery_rounds = rounds_used
            if asynchronous:
                recovery_sim_time = sim.now - (base + spec.inject_at)
            break
    recovery_messages = network.transport.messages_sent - before_recovery_msgs

    # Act 5: the recovered overlay, probed fresh.
    post = sweep("post", draw_points("probes.post"))

    return FaultScenarioResult(
        spec=spec,
        baseline=baseline,
        outage=outage,
        post=post,
        recovery_rounds=recovery_rounds,
        recovery_messages=recovery_messages,
        population_start=population_start,
        population_after_fault=population_after_fault,
        fault_log=list(fault_log),
        counters=network.transport.metrics.counters(),
        wall_seconds=time.perf_counter() - start_wall,
        recovery_sim_time=recovery_sim_time,
        hop_latency=_hop_quantiles(network.transport.rtt_log) if asynchronous else {},
    )
