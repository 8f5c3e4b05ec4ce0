"""The benchmark's workloads: inputs from a seed, set-up, and an open-loop serve.

Every workload serves single-sample requests through
:class:`repro.service.SamplingService` on one simulated clock.  The
benchmark, not the program, draws the workload's inputs:

- the ring is part of the workload, fixed by its name rather than by
  the seed.  Estimate-n's answer depends on the ring around its vantage
  peer: from one ring seed to the next, ``n_hat / n`` moves by an
  interquartile 19% (n=1e5) to 26% (n=1e4), and every cost metric
  moves with it.  Ideal rings are point lists handed to
  :meth:`IdealDHT.from_points`; overlay rings take their ids from a
  ring stream the benchmark seeds (no public overlay builder accepts an
  id list);
- from the seed, arrival times are an open-loop Poisson stream, replayed onto
  ``service.submit`` at exactly those simulated times, so the generator
  is never late on the simulated clock;
- churn events (time, join or departure, crash or leave, which member,
  which fresh id) are drawn here and applied through the overlay's
  public ``join_node``/``crash_node``/``leave_node``.

The program's own coin flips (trial points) come from a service seed
derived from the workload seed as well, so one seed fixes the whole run.

A run serves a fixed number of arrivals, sized so that serving takes
about ``--seconds`` on the machine the workloads were tuned on; every
simulated-clock output is then exact for a seed.  On the wall clock the
run is a batch job: the serve loop advances the simulator one fixed
window of simulated time at a time and times each window, next to a
fixed reference unit of interpreted work that tracks the host's speed.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field

from repro.dht.api import CostSnapshot
from repro.dht.chord.network import ChordNetwork
from repro.dht.ideal import IdealDHT
from repro.dht.kademlia.network import KademliaNetwork
from repro.service import RequestStatus, SamplingService
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["WORKLOADS", "Workload", "Served", "System", "make_inputs", "set_up", "serve"]

# Overlay shape: the defaults of repro.service.build_substrates.
CHORD_M = 20
KAD_BITS = 32
KAD_K = 20
KAD_ALPHA = 3

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3


@dataclass(frozen=True)
class Workload:
    """One serving configuration, fully pinned.

    ``rate`` is service-wide arrivals per simulated time unit;
    ``window`` the simulated span timed as one unit on the wall clock
    (on ``chord-churn`` exactly one stabilization interval, so every
    window holds one maintenance round).  A run serves
    ``arrivals_per_s`` arrivals per second of ``--seconds``, and at least
    ``min_arrivals`` so that ten completions lie beyond p95.  The rates
    keep the overlay shards ~22% busy: see README.md for why.
    """

    name: str
    substrate: str  # ideal | chord | kademlia
    n: int
    shards: int
    rate: float
    window: float
    churn_rate: float = 0.0  # membership events per simulated time unit
    crash_fraction: float = 0.5
    stabilize_interval: float = 0.0  # 0 = no periodic maintenance
    arrivals_per_s: float = 0.0
    min_arrivals: int = 240

    @property
    def static(self) -> bool:
        return self.churn_rate == 0.0

    def record(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ideal-serve", "ideal", 100_000, 2, rate=0.30, window=1_000.0, arrivals_per_s=700
        ),
        Workload(
            "chord-serve", "chord", 100_000, 1, rate=0.025, window=400.0, arrivals_per_s=40
        ),
        Workload(
            "chord-churn",
            "chord",
            10_000,
            1,
            rate=0.025,
            window=200.0,
            churn_rate=0.2,
            stabilize_interval=200.0,
            arrivals_per_s=8,
        ),
        Workload(
            "kademlia-serve",
            "kademlia",
            10_000,
            1,
            rate=0.03,
            window=400.0,
            arrivals_per_s=14,
        ),
    )
}


# -- inputs ------------------------------------------------------------------


def stream(seed: int, label: str) -> random.Random:
    """An input stream of its own, derived from the workload seed."""
    return random.Random(f"{seed}/{label}")


def ring_stream(w: Workload, shard: int) -> random.Random:
    """The ring stream of one shard: fixed by the workload, not the seed."""
    return random.Random(f"{w.name}/ring{shard}")


def make_inputs(w: Workload) -> dict:
    """Inputs drawn before the set-up clock starts (the ideal rings' points)."""
    if w.substrate != "ideal":
        return {}
    rings = []
    for shard in range(w.shards):
        rng = ring_stream(w, shard)
        points: set[float] = set()
        while len(points) < w.n:
            points.add(1.0 - rng.random())
        rings.append(sorted(points))
    return {"rings": rings}


class Arrivals:
    """Open-loop Poisson arrivals drawn here and replayed onto ``submit``.

    Each gap is drawn when the previous arrival fires; the stream ends
    after ``total`` arrivals.
    """

    def __init__(self, sim: Simulator, submit, rate: float, rng: random.Random, total: int):
        self._sim = sim
        self._submit = submit
        self._rate = rate
        self._rng = rng
        self.total = total
        self.count = 0

    @property
    def done(self) -> bool:
        return self.count >= self.total

    def start(self) -> None:
        self._sim.schedule(self._rng.expovariate(self._rate), self._fire)

    def _fire(self) -> None:
        self.count += 1
        self._submit()
        if self.count < self.total:
            self._sim.schedule(self._rng.expovariate(self._rate), self._fire)


class Churn:
    """Poisson membership events drawn here, applied through the public API.

    Half the events are joins of a fresh id; the rest remove a uniformly
    chosen member, as a crash with probability ``crash_fraction`` and as
    a graceful leave otherwise.  ``log`` keeps ``(time, kind, node_id)``
    for the liveness check.
    """

    def __init__(self, sim: Simulator, network, rate: float, crash_fraction: float, rng):
        self._sim = sim
        self._network = network
        self._rate = rate
        self._crash_fraction = crash_fraction
        self._rng = rng
        self.log: list[tuple[float, str, int]] = []
        self.stopped = False

    def start(self) -> None:
        self._sim.schedule(self._rng.expovariate(self._rate), self._fire)

    def stop(self) -> None:
        self.stopped = True

    def _fire(self) -> None:
        if self.stopped:
            return
        rng = self._rng
        net = self._network
        if rng.random() < 0.5:
            size = 1 << net.m
            node_id = rng.randrange(size)
            while node_id in net.nodes:
                node_id = (node_id + 1) % size
            net.join_node(node_id)
            kind = "join"
        else:
            members = list(net.nodes)
            node_id = members[int(rng.random() * len(members))]
            if rng.random() < self._crash_fraction:
                net.crash_node(node_id)
                kind = "crash"
            else:
                net.leave_node(node_id)
                kind = "leave"
        self.log.append((self._sim.now, kind, node_id))
        self._sim.schedule(rng.expovariate(self._rate), self._fire)


# -- host speed --------------------------------------------------------------

#: Wall seconds of one :func:`reference_unit` when the machine runs at
#: full speed.  Measured on the 2-vCPU x86-64 VM (CPython 3.11) the
#: workload sizes were tuned on.
REF_NOMINAL_S = 0.0012


def _reference_step(i: int, table: dict) -> float:
    key = i & 1023
    table[key] = table.get(key, 0) + 1
    return (i * 0.5) % 3.0


def reference_unit() -> float:
    """Wall seconds of a fixed piece of interpreted work, best of three.

    The host's speed drifts by up to half over spans of seconds, and
    process CPU time drifts with it.  Timing this fixed mix of calls,
    dict updates and float arithmetic beside every window gives the
    speed the window ran at.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table: dict = {}
        acc = 0.0
        for i in range(5_000):
            acc += _reference_step(i, table)
        best = min(best, time.perf_counter() - start)
    return best


# -- set-up ------------------------------------------------------------------


@dataclass
class System:
    """A set-up service and what the checks need to see of it."""

    sim: Simulator
    service: SamplingService
    substrates: list
    networks: list  # overlay networks, one per shard (empty on ideal)
    members: list[set]  # per shard, the peer ids present at the first arrival


def set_up(w: Workload, seed: int, inputs: dict) -> System:
    """Build the overlays, run Estimate-n and warm every shard."""
    sim = Simulator()
    networks = []
    if w.substrate == "ideal":
        substrates = [IdealDHT.from_points(points) for points in inputs["rings"]]
    else:
        for shard in range(w.shards):
            rng = ring_stream(w, shard)
            if w.substrate == "chord":
                net = ChordNetwork.build(w.n, m=CHORD_M, rng=rng, sim=sim)
            else:
                net = KademliaNetwork.build(
                    w.n, m=KAD_BITS, k=KAD_K, alpha=KAD_ALPHA, rng=rng, sim=sim
                )
            networks.append(net)
        substrates = [net.dht() for net in networks]
    # Constructing the service runs Estimate-n once per shard.
    service = SamplingService(
        substrates, sim=sim, rngs=RngRegistry(stream(seed, "service").getrandbits(63))
    )
    for shard in service.shards:
        shard.dispatch.warm()
    if networks:
        members = [set(net.nodes) for net in networks]
    else:
        members = [set(range(len(dht))) for dht in substrates]
    return System(sim, service, substrates, networks, members)


def timed_setups(
    w: Workload, seed: int, inputs: dict, count: int
) -> tuple[System, list[float], list[float]]:
    """Set up ``count`` times from scratch; keeps the last system.

    Returns the system, each set-up's wall seconds, and each rescaled to
    the reference speed by reference units timed just before and after.
    """
    raw, scaled = [], []
    system = None
    for _ in range(count):
        system = None
        gc.collect()
        ref_before = reference_unit()
        start = time.perf_counter()
        system = set_up(w, seed, inputs)
        elapsed = time.perf_counter() - start
        ref_after = reference_unit()
        raw.append(elapsed)
        scaled.append(elapsed * REF_NOMINAL_S / ((ref_before + ref_after) / 2))
    return system, raw, scaled


# -- serving -----------------------------------------------------------------

@dataclass
class Served:
    """What one serve produced, for metrics and checks."""

    wall_s: float
    windows: list[tuple[float, float]]  # (wall seconds, reference-unit seconds)
    submitted: int
    events: int
    cost: list[CostSnapshot]  # per-shard substrate meter delta
    transport_messages: list[int]  # per-shard transport message delta (overlays)
    churn_log: list = field(default_factory=list)
    ring_recovered: bool | None = None

    @property
    def reference_wall_s(self) -> float:
        """Serve time with each window rescaled to the reference speed."""
        return sum(wall * REF_NOMINAL_S / ref for wall, ref in self.windows)


def arrivals_for(w: Workload, seconds: float) -> int:
    """The run's arrival count: ``seconds`` of nominal serving, at least ``w.min_arrivals``."""
    return max(w.min_arrivals, round(seconds * w.arrivals_per_s))


def serve(system: System, w: Workload, seed: int, total: int) -> Served:
    """Serve ``total`` open-loop arrivals from the first until the queue drains.

    The simulator advances one window of ``w.window`` simulated time
    units at a time; each window's wall time is recorded, with a
    reference unit timed at its end (outside the window).
    """
    sim, service = system.sim, system.service
    arrivals = Arrivals(sim, service.submit, w.rate, stream(seed, "arrivals"), total)
    churn = None
    if w.churn_rate > 0:
        churn = Churn(
            sim, system.networks[0], w.churn_rate, w.crash_fraction, stream(seed, "churn")
        )
    maintenance = []
    if w.stabilize_interval > 0:
        maintenance = [
            net.start_periodic_maintenance(w.stabilize_interval) for net in system.networks
        ]
    cost0 = [dht.cost.snapshot() for dht in system.substrates]
    sent0 = [net.transport.messages_sent for net in system.networks]
    events0 = sim.events_executed
    windows: list[tuple[float, float]] = []
    clock = time.perf_counter
    ref_before = reference_unit()
    wall = 0.0
    arrivals.start()
    if churn is not None:
        churn.start()
    k = 0
    while not (arrivals.done and service.pending == 0):
        k += 1
        before = clock()
        sim.run(until=k * w.window)
        elapsed = clock() - before
        ref_after = reference_unit()
        windows.append((elapsed, (ref_before + ref_after) / 2))
        ref_before = ref_after
        wall += elapsed
    if churn is not None:
        churn.stop()
    for task in maintenance:
        task.cancel()
    start = clock()
    sim.run()
    wall += clock() - start
    return Served(
        wall_s=wall,
        windows=windows,
        submitted=arrivals.count,
        events=sim.events_executed - events0,
        cost=[dht.cost.snapshot() - c for dht, c in zip(system.substrates, cost0)],
        transport_messages=[
            net.transport.messages_sent - s for net, s in zip(system.networks, sent0)
        ],
        churn_log=churn.log if churn is not None else [],
    )


def recover(system: System, rounds: int = 80) -> bool:
    """The scenario runner's ring-recovery verdict, after churn has stopped.

    Bounded stabilization in chunks of five rounds with an oracle check
    between them (``ScenarioSpec.recovery_rounds`` defaults to 80).
    """
    ok = True
    for net in system.networks:
        remaining = rounds
        while remaining > 0 and not net.ring_is_correct():
            chunk = min(5, remaining)
            net.run_stabilization(chunk)
            remaining -= chunk
        ok = ok and net.ring_is_correct()
    return ok


# -- end-to-end metrics ------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(index)]


def latencies(service: SamplingService) -> list[float]:
    """Arrival-to-completion simulated latency of every completed request."""
    return sorted(
        r.total_latency for r in service.responses if r.status is RequestStatus.OK
    )


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(system: System, served: Served, setup_ref_s: list[float]) -> dict:
    """Every end-to-end metric of one untraced run, as ``{name: (value, unit)}``."""
    service = system.service
    completed = service.metrics.completed
    lat = latencies(service)
    messages = sum(c.messages for c in served.cost)
    return {
        "draws_per_s": (completed / served.reference_wall_s, "draws/ref_s"),
        "setup_s": (statistics.median(setup_ref_s), "s"),
        "sim_latency_p50": (percentile(lat, 50), "sim_units"),
        "sim_latency_p95": (percentile(lat, 95), "sim_units"),
        "msgs_per_draw": (messages / completed, "msgs/draw"),
        "ok_ratio": (completed / served.submitted, "fraction"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
