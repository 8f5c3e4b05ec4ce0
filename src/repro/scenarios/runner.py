"""Run a :class:`~repro.scenarios.spec.ScenarioSpec` as a live system.

The runner wires the full dynamic-membership stack on **one**
discrete-event clock:

- per shard, a message-level overlay -- a
  :class:`~repro.dht.chord.network.ChordNetwork` ring or a
  :class:`~repro.dht.kademlia.network.KademliaNetwork` (per
  ``spec.backend``) -- with periodic maintenance (stabilization or
  bucket refresh) scheduled on the shared simulator;
- per shard, a :class:`~repro.sim.churn.ChurnProcess` issuing Poisson
  joins, graceful leaves and fail-stop crashes *while requests are in
  flight*;
- the sampling service (:mod:`repro.service`) over the rings' DHT
  adapters -- micro-batching, health-aware routing, retry-with-backoff
  and explicit failure on churn-killed dispatches;
- an open-loop Poisson :class:`~repro.service.loadgen.LoadGenerator`.

The run finishes when the offered load is served (or the spec's
``max_sim_time`` safety stop trips), churn and maintenance are halted,
in-flight work drains, and a recovery phase checks the paper-level
invariant that stabilization restores a correct ring once churn stops.
The :class:`ScenarioResult` packages uniformity (chi-square and total
variation against the *live* population), per-sample cost, service
latency tails, churn/failure accounting and the recovery verdict as one
JSON-ready record.

Everything is deterministic from ``spec.seed``: rings, churn timing,
trial points and arrivals each draw from their own named RNG substream.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from ..adversary.state import AdversaryState
from ..analysis.stats import chi_square_uniform, total_variation_from_uniform
from ..apps.committee import (
    CommitteeSpec,
    committee_failure_probability,
    empirical_committee_failure,
)
from ..dht.chord.network import ChordNetwork
from ..dht.kademlia.network import KademliaNetwork
from ..service.core import SamplingService
from ..service.loadgen import LoadGenerator
from ..service.shapes import ZipfKeys, make_shape
from ..sim.churn import ChurnProcess
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from .spec import ScenarioSpec

__all__ = ["ShardReport", "ScenarioResult", "run_scenario", "run_specs"]

#: Simulation-time slice per drive iteration.  Slicing exists only so the
#: stop condition (load served, queues empty) is re-checked while
#: periodic maintenance keeps the event queue eternally non-empty.
_SLICE = 25.0


@dataclass(frozen=True, slots=True)
class ShardReport:
    """Per-shard verdict: population change, sampling quality, cost."""

    shard_id: int
    population_start: int
    population_end: int
    churn_events: dict[str, int]
    draws: int  # completed samples served by this shard
    survivors: int  # peers alive from first to last membership change
    chi2_p: float | None  # uniformity over survivors; None if untestable
    tv_survivors: float | None  # TV from uniform over survivor draws
    live_fraction: float | None  # draws whose peer is alive at the end
    messages: int
    messages_per_sample: float | None
    latency_per_sample: float | None
    stale_trials: int  # engine trials lost to unreachable peers
    lockstep_lookups: int  # lookups resolved by the snapshot engine
    delegated_lookups: int  # engine-flagged failures replayed live
    snapshot_builds: int  # ring stores built (1: the store is never rebuilt)
    ring_correct_after_recovery: bool
    # -- adversarial accounting (defaults = honest run; see docs/ADVERSARY.md)
    byzantine: int = 0  # peers marked Byzantine in this shard
    captured_draws: int = 0  # completed draws that landed on a Byzantine peer
    capture_rate: float | None = None  # captured_draws / draws
    bias_amplification: float | None = None  # capture_rate / live Byz fraction
    honest_chi2_p: float | None = None  # uniformity over *honest* survivors
    honest_tv: float | None = None  # TV from uniform over honest survivors
    snapshot_patches: int = 0  # writes to the ring store (splices, rows, rewirings)

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produced, JSON-ready via :meth:`to_record`."""

    spec: ScenarioSpec
    summary: dict  # ServiceMetrics.summary() at drain time
    shards: list[ShardReport] = field(default_factory=list)
    sim_time: float = 0.0
    wall_seconds: float = 0.0
    truncated: bool = False  # max_sim_time tripped before the load drained
    adversary: dict | None = None  # committee capture & lie accounting

    # -- aggregate views ---------------------------------------------------

    @property
    def completed(self) -> int:
        return self.summary["completed"]

    @property
    def failed(self) -> int:
        return self.summary["failed"]

    @property
    def rejected(self) -> int:
        return self.summary["rejected"]

    @property
    def dispatch_failures(self) -> int:
        return self.summary["dispatch_failures"]

    @property
    def churn_events(self) -> int:
        return sum(sum(s.churn_events.values()) for s in self.shards)

    @property
    def min_chi2_p(self) -> float | None:
        """The least-uniform shard's p-value (the honest headline)."""
        ps = [s.chi2_p for s in self.shards if s.chi2_p is not None]
        return min(ps) if ps else None

    @property
    def max_tv(self) -> float | None:
        tvs = [s.tv_survivors for s in self.shards if s.tv_survivors is not None]
        return max(tvs) if tvs else None

    @property
    def messages_per_sample(self) -> float | None:
        draws = sum(s.draws for s in self.shards)
        if draws == 0:
            return None
        return sum(s.messages for s in self.shards) / draws

    @property
    def ring_recovered(self) -> bool:
        """Did every shard's ring stabilize back to correctness?"""
        return all(s.ring_correct_after_recovery for s in self.shards)

    def to_record(self) -> dict:
        lat = self.summary["latency"]["total_latency"]
        return {
            "spec": self.spec.to_record(),
            "sim_time": self.sim_time,
            "wall_seconds": self.wall_seconds,
            "truncated": self.truncated,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "dispatch_failures": self.dispatch_failures,
            "churn_events": self.churn_events,
            "uniformity": {
                "min_chi2_p": self.min_chi2_p,
                "max_tv": self.max_tv,
            },
            "cost": {"messages_per_sample": self.messages_per_sample},
            "latency": {
                "p50": lat["p50"],
                "p95": lat["p95"],
                "p99": lat["p99"],
                "mean": lat["mean"],
            },
            "ring_recovered": self.ring_recovered,
            "adversary": self.adversary,
            "shards": [s.to_record() for s in self.shards],
            "summary": self.summary,
        }


def _build_ring(spec: ScenarioSpec, shard_id: int, sim, rngs):
    """One shard overlay of the spec's backend, seeded from its own stream.

    Both classes expose the same membership/maintenance vocabulary
    (``join_node``/``crash_node``/``leave_node``,
    ``start_periodic_maintenance``, ``run_stabilization``,
    ``ring_is_correct``), so everything downstream of construction is
    backend-agnostic.
    """
    ring_rng = random.Random(rngs.fresh(f"shard{shard_id}.ring").getrandbits(64))
    # The kwarg is only passed when the spec opts in, so sync-transport
    # specs build rings through the exact historical code path.
    extra = {"async_transport": True} if spec.transport == "async" else {}
    if spec.backend == "kademlia":
        return KademliaNetwork.build(
            spec.n,
            m=spec.chord_m,
            k=spec.kad_k,
            alpha=spec.kad_alpha,
            rng=ring_rng,
            sim=sim,
            **extra,
        )
    return ChordNetwork.build(spec.n, m=spec.chord_m, rng=ring_rng, sim=sim, **extra)


def run_scenario(spec: ScenarioSpec, tracer=None) -> ScenarioResult:
    """Drive one scenario to completion and report on it.

    Raises nothing churn-related by construction: membership failures
    are absorbed by the substrate's liveness retries, the engine's
    stale-trial redraws and the shard workers' retry/FAILED path -- a
    leaked exception here is a bug, and the scenario tests assert on it.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) turns on end-to-end
    span collection: the service threads it through admission, batching,
    the engine and each shard's transport, and the runner attaches every
    metrics registry for exposition.  Leave it None for the untraced
    (bit-identical, zero-overhead) default.
    """
    rngs = RngRegistry(spec.seed)
    sim = Simulator()

    networks = [_build_ring(spec, i, sim, rngs) for i in range(spec.shards)]
    substrates = [net.dht() for net in networks]
    start_populations = [set(net.nodes) for net in networks]

    # Byzantine marking happens before any load: placement draws from a
    # per-shard named stream so honest runs (adv_fraction == 0) skip
    # this block entirely and consume not a single extra random bit --
    # that is what keeps fraction-0 runs bit-identical to pre-adversary
    # releases (enforced by benchmarks/bench_adversary.py's twin check).
    adversaries: list[AdversaryState] = []
    if spec.adversarial:
        for shard_id, net in enumerate(networks):
            adv_rng = random.Random(
                rngs.fresh(f"shard{shard_id}.adversary").getrandbits(64)
            )
            # The service's entry vantage stays honest: the threat model
            # is lying *participants*, not a compromised client.
            candidates = sorted(set(net.nodes) - {substrates[shard_id].entry_id})
            count = min(
                len(candidates), max(1, round(spec.adv_fraction * len(net.nodes)))
            )
            state = AdversaryState(m=spec.chord_m)
            for node_id in adv_rng.sample(candidates, count):
                state.mark(node_id, spec.adv_strategy)
            net.transport.install_adversary(state)
            adversaries.append(state)

    service = SamplingService(
        substrates,
        sim=sim,
        rngs=rngs,
        policy=spec.policy,
        dispatch=spec.dispatch,
        max_batch=spec.max_batch,
        max_queue=spec.max_queue,
        max_retries=spec.max_retries,
        retry_backoff=spec.retry_backoff,
        retry_policy=spec.retry_policy(),
        tracer=tracer,
    )

    maintenance = []
    if spec.stabilize_interval > 0:
        maintenance = [
            net.start_periodic_maintenance(spec.stabilize_interval)
            for net in networks
        ]
    churns = []
    if spec.churning:
        churns = [
            ChurnProcess(
                net,
                sim,
                rate=spec.churn_rate,
                rng=rngs,
                stream=f"shard{shard_id}.churn",
                target_size=spec.n,
                min_size=spec.min_size,
                crash_fraction=spec.crash_fraction,
            )
            for shard_id, net in enumerate(networks)
        ]

    # Workload heterogeneity: a rate modulator and/or Zipf-skewed keys
    # (both default off, leaving the constant unkeyed path untouched).
    shape = make_shape(
        spec.load_shape,
        spec.rate,
        amplitude=spec.shape_amplitude,
        period=spec.shape_period,
    )
    keys = (
        ZipfKeys(1024, spec.key_skew, rngs.stream("keys"))
        if spec.key_skew > 0
        else None
    )
    generator = LoadGenerator(
        sim,
        service.submit,
        rate=spec.rate,
        total=spec.requests,
        rng=rngs.stream("arrivals"),
        shape=shape,
        keys=keys,
    )

    start_wall = time.perf_counter()
    generator.start()
    for churn in churns:
        churn.start()

    # Drive in slices: periodic maintenance keeps the queue non-empty
    # forever, so completion is a condition, not queue exhaustion.
    truncated = False
    while not (generator.done and service.pending == 0):
        if sim.now >= spec.max_sim_time:
            truncated = True
            break
        sim.run_for(_SLICE)

    # Churn stops; cancel the periodic tasks and drain remaining work
    # (retries in backoff, the final batches).  A truncated run also
    # stops the generator, so max_sim_time really does bound the run
    # instead of serving the leftover load churn-free.
    if truncated:
        generator.stop()
    for churn in churns:
        churn.stop()
    for task in maintenance:
        task.cancel()
    sim.run()
    wall = time.perf_counter() - start_wall

    summary = service.summary()
    if tracer is not None and tracer.enabled:
        # Attach registries *after* the run: the transport materializes
        # its per-method counters on read, so attaching here hands the
        # exporter finished numbers.
        tracer.attach_registry("service", service.metrics.registry)
        for shard_id, net in enumerate(networks):
            tracer.attach_registry(
                f"shard{shard_id}.transport", net.transport.method_message_counters()
            )

    # Recovery phase: with churn halted, bounded stabilization must
    # restore every ring to correctness (the paper's dynamic-network
    # premise).  Runs in chunks with an oracle check between them so a
    # barely-damaged ring exits early; does not advance the sim clock.
    ring_ok = []
    for net in networks:
        remaining = spec.recovery_rounds
        while remaining > 0 and not net.ring_is_correct():
            chunk = min(5, remaining)
            net.run_stabilization(chunk)
            remaining -= chunk
        ring_ok.append(net.ring_is_correct())

    shard_reports = _shard_reports(
        service, substrates, networks, churns, start_populations, ring_ok, adversaries
    )
    adversary_block = (
        _adversary_report(spec, service, networks, adversaries)
        if adversaries
        else None
    )
    return ScenarioResult(
        spec=spec,
        summary=summary,
        shards=shard_reports,
        sim_time=sim.now,
        wall_seconds=wall,
        truncated=truncated,
        adversary=adversary_block,
    )


def _shard_reports(
    service, substrates, networks, churns, start_populations, ring_ok,
    adversaries=(),
) -> list[ShardReport]:
    by_shard_counts: list[Counter] = [Counter() for _ in networks]
    for response in service.completed:
        by_shard_counts[response.shard_id][response.peer.peer_id] += 1

    reports = []
    for shard_id, net in enumerate(networks):
        counts = by_shard_counts[shard_id]
        draws = sum(counts.values())
        end_population = set(net.nodes)
        survivors = sorted(start_populations[shard_id] & end_population)
        chi2_p, tv = _uniformity_over(survivors, counts)
        byz_ids = adversaries[shard_id].byzantine_ids if adversaries else frozenset()
        captured = sum(c for p, c in counts.items() if p in byz_ids) if byz_ids else 0
        capture_rate = captured / draws if byz_ids and draws else None
        byz_live = len(byz_ids & end_population)
        live_byz_fraction = byz_live / len(end_population) if end_population else 0.0
        bias_amplification = (
            capture_rate / live_byz_fraction
            if capture_rate is not None and live_byz_fraction > 0
            else None
        )
        honest_chi2_p, honest_tv = (
            _uniformity_over([p for p in survivors if p not in byz_ids], counts)
            if byz_ids
            else (None, None)
        )
        live = (
            sum(c for p, c in counts.items() if p in end_population) / draws
            if draws
            else None
        )
        cost = substrates[shard_id].cost.snapshot()
        sampler = service.shards[shard_id].dispatch.sampler
        batch_stats = getattr(substrates[shard_id], "batch_stats", None)
        reports.append(
            ShardReport(
                shard_id=shard_id,
                population_start=len(start_populations[shard_id]),
                population_end=len(end_population),
                churn_events=(
                    churns[shard_id].event_counts()
                    if churns
                    else {"join": 0, "leave": 0, "crash": 0}
                ),
                draws=draws,
                survivors=len(survivors),
                chi2_p=chi2_p,
                tv_survivors=tv,
                live_fraction=live,
                messages=cost.messages,
                messages_per_sample=cost.messages / draws if draws else None,
                latency_per_sample=cost.latency / draws if draws else None,
                stale_trials=getattr(sampler, "stale_trials", 0),
                lockstep_lookups=batch_stats.lockstep if batch_stats else 0,
                delegated_lookups=batch_stats.delegated if batch_stats else 0,
                snapshot_builds=getattr(net, "snapshot_builds", 0),
                ring_correct_after_recovery=ring_ok[shard_id],
                byzantine=len(byz_ids),
                captured_draws=captured,
                capture_rate=capture_rate,
                bias_amplification=bias_amplification,
                honest_chi2_p=honest_chi2_p,
                honest_tv=honest_tv,
                snapshot_patches=getattr(net, "snapshot_patches", 0),
            )
        )
    return reports


class _SequenceSampler:
    """Replays the run's completed draws as committee members, in order.

    Capture is measured on the draws the service *actually served* --
    no fresh randomness, so the verdict is as deterministic as the run.
    Members are ``(shard_id, peer_id)`` pairs because shard-scoped peer
    ids may collide across shards.
    """

    __slots__ = ("_it",)

    def __init__(self, draws):
        self._it = iter(draws)

    def sample(self):
        return next(self._it)


def _adversary_report(spec, service, networks, adversaries) -> dict:
    """Committee capture and lie accounting for an adversarial run.

    Committees of ``spec.committee_size`` are chunked from the completed
    draws in completion order; a committee is *captured* when its
    Byzantine share exceeds the 1/3-threshold tolerance
    (:class:`~repro.apps.committee.CommitteeSpec`).  The analytic twin
    is the binomial tail under uniform sampling over the end-of-run
    live population -- the number the empirical rate is banded against
    in the adversary test suite (see docs/ADVERSARY.md).
    """
    byz_sets = [adv.byzantine_ids for adv in adversaries]

    def is_byzantine(member) -> bool:
        shard_id, peer_id = member
        return peer_id in byz_sets[shard_id]

    draws = [(r.shard_id, r.peer.peer_id) for r in service.completed]
    cspec = CommitteeSpec(spec.committee_size)
    elections = len(draws) // cspec.size
    empirical = (
        empirical_committee_failure(
            _SequenceSampler(draws), is_byzantine, cspec, elections
        )
        if elections
        else None
    )
    live_total = sum(len(net.nodes) for net in networks)
    byz_live = sum(
        len(byz_sets[i] & set(net.nodes)) for i, net in enumerate(networks)
    )
    analytic = (
        committee_failure_probability(live_total, byz_live, cspec)
        if live_total
        else None
    )
    captured = sum(1 for member in draws if is_byzantine(member))
    return {
        "fraction": spec.adv_fraction,
        "strategy": spec.adv_strategy,
        "byzantine_total": sum(len(s) for s in byz_sets),
        "byzantine_live": byz_live,
        "live_total": live_total,
        "draws": len(draws),
        "captured_draws": captured,
        "capture_rate": captured / len(draws) if draws else None,
        "committee": {
            "size": cspec.size,
            "max_byzantine": cspec.max_byzantine,
            "elections": elections,
            "empirical_capture": empirical,
            "analytic_capture": analytic,
        },
        "shards": [adv.describe() for adv in adversaries],
    }


def _uniformity_over(survivors, counts) -> tuple[float | None, float | None]:
    """Uniformity of the draws restricted to all-run-long survivors.

    Survivors are alive for the whole run, so a sampler that is uniform
    over the live population at every instant hits each with identical
    probability -- equal expected counts, the exact null hypothesis of
    the chi-square test.  Peers that joined or departed mid-run have
    time-varying inclusion and are excluded (their draws simply don't
    enter the restricted counts).  Returns ``(None, None)`` when the
    test is undefined (under two survivors, or no survivor draws).
    """
    survivor_counts = [counts.get(p, 0) for p in survivors]
    total = sum(survivor_counts)
    if len(survivors) < 2 or total == 0:
        return None, None
    chi2_p = chi_square_uniform(survivor_counts).p_value
    empirical = {p: counts.get(p, 0) / total for p in survivors}
    return chi2_p, total_variation_from_uniform(empirical)


def run_specs(specs) -> list[ScenarioResult]:
    """Run several scenarios back to back (each fully independent)."""
    return [run_scenario(spec) for spec in specs]
