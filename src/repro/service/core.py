"""The sampling service: substrates + routing + batching + admission.

:class:`SamplingService` is the assembly: each substrate becomes a
shard (a :class:`~repro.service.batching.ShardWorker` over a dispatch
strategy), a :class:`~repro.service.router.ShardRouter` spreads
requests, an :class:`~repro.service.admission.AdmissionController`
bounds queues, and one :class:`~repro.service.metrics.ServiceMetrics`
aggregates the run.  Everything advances on one deterministic
:class:`~repro.sim.kernel.Simulator` clock, and all randomness (trial
points, ring construction, arrivals) comes from named
:class:`~repro.sim.rng.RngRegistry` streams -- two runs with the same
seed produce the same request-to-peer assignments and metric counts.

Shards are independent *replicas* of the sampling capability: each owns
a full substrate (its own ring) and serves uniform draws from it, so
adding shards multiplies serving capacity without coordination.  The
:func:`build_service` convenience constructs homogeneous or mixed
(ideal + Chord) shard sets from a seed.
"""

from __future__ import annotations

import random

from ..core.engine import BatchSampler
from ..core.sampler import RandomPeerSampler
from ..dht.chord.network import ChordNetwork
from ..dht.ideal import IdealDHT
from ..dht.kademlia.network import KademliaNetwork
from ..obs.tracer import NULL_TRACER
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from .admission import AdmissionController
from .batching import ShardWorker
from .dispatch import BatchDispatch, ScalarDispatch, ServiceTimeModel
from .loadgen import LoadGenerator
from .metrics import DEFAULT_RESERVOIR, ServiceMetrics
from .request import RequestStatus, SampleRequest, SampleResponse
from .router import ShardRouter

__all__ = [
    "SamplingService",
    "build_load",
    "build_service",
    "build_substrates",
    "DISPATCH_MODES",
    "SUBSTRATES",
]

DISPATCH_MODES = ("batch", "scalar")
SUBSTRATES = ("ideal", "chord", "kademlia", "mixed")


class SamplingService:
    """A micro-batching single-sample frontend over sharded substrates."""

    def __init__(
        self,
        substrates,
        *,
        sim: Simulator | None = None,
        rngs: RngRegistry | None = None,
        seed: int = 0,
        policy: str = "round-robin",
        dispatch: str = "batch",
        max_batch: int = 32,
        max_queue: int = 256,
        max_retries: int = 2,
        retry_backoff: float = 1.0,
        retry_policy=None,
        time_model: ServiceTimeModel | None = None,
        reservoir_size: int | None = DEFAULT_RESERVOIR,
        keep_responses: bool = True,
        tracer=None,
    ):
        if dispatch not in DISPATCH_MODES:
            raise ValueError(f"unknown dispatch {dispatch!r}; choose from {DISPATCH_MODES}")
        if not substrates:
            raise ValueError("need at least one substrate")
        self.sim = sim if sim is not None else Simulator()
        rngs = rngs if rngs is not None else RngRegistry(seed)
        self.dispatch_mode = dispatch
        #: End-to-end span sink (:class:`repro.obs.tracer.Tracer`); the
        #: shared no-op default means an untraced service never pays
        #: more than one ``enabled`` attribute read per request.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = ServiceMetrics(len(substrates), reservoir_size=reservoir_size)
        #: Every terminal response (completions and rejections) in the
        #: order the service produced them -- the run's audit stream.
        #: Grows O(requests); pass ``keep_responses=False`` for long load
        #: tests where the bounded-memory metrics are the only consumer.
        self.responses: list[SampleResponse] = []
        self._keep_responses = keep_responses
        time_model = time_model if time_model is not None else ServiceTimeModel()
        self.shards: list[ShardWorker] = []
        # Scalar IS per-request dispatch: each request pays its own
        # dispatch overhead, so scalar shards never coalesce regardless
        # of max_batch (see ServiceTimeModel's amortization contract).
        worker_batch = max_batch if dispatch == "batch" else 1
        sink = self.responses.append if keep_responses else None
        # One named stream feeds every shard's retry jitter, so runs
        # stay replayable; a policy without jitter never draws from it.
        retry_rng = rngs.stream("service.retry") if retry_policy is not None else None
        engine_tracer = self.tracer if self.tracer.enabled else None
        for shard_id, dht in enumerate(substrates):
            trial_rng = rngs.stream(f"shard{shard_id}.trials")
            if dispatch == "batch":
                strategy = BatchDispatch(
                    BatchSampler(dht, rng=trial_rng, tracer=engine_tracer)
                )
            else:
                strategy = ScalarDispatch(RandomPeerSampler(dht, rng=trial_rng))
            if engine_tracer is not None:
                # Live substrates expose their message fabric; the ideal
                # oracle has none, so per-hop spans simply don't occur.
                transport = getattr(dht, "transport", None)
                if transport is not None:
                    transport.install_tracer(engine_tracer)
            self.shards.append(
                ShardWorker(
                    shard_id,
                    self.sim,
                    strategy,
                    time_model=time_model,
                    metrics=self.metrics,
                    sink=sink,
                    max_batch=worker_batch,
                    max_retries=max_retries,
                    retry_backoff=retry_backoff,
                    retry_policy=retry_policy,
                    retry_rng=retry_rng,
                    tracer=self.tracer,
                )
            )
        self.router = ShardRouter(self.shards, policy=policy)
        self.admission = AdmissionController(max_queue_depth=max_queue)
        self._next_id = 0

    # -- the request path --------------------------------------------------

    def submit(self, key: int | None = None) -> SampleRequest:
        """Accept one single-sample request arriving *now* (sim clock).

        Routes, then admits or rejects: a rejection produces an
        immediate ``REJECTED`` response in :attr:`responses`; an
        admission joins the shard's micro-batch queue and completes
        later.  Returns the request record either way.
        """
        now = self.sim.now
        request = SampleRequest(self._next_id, now, key if key is not None else -1)
        self._next_id += 1
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            tracer.begin_request(request.request_id, now)
        shard = self.router.route(request)
        admitted = self.admission.admit(shard)
        if traced:
            tracer.record_admission(
                request.request_id,
                shard.shard_id,
                admitted,
                now,
                **self.admission.explain(shard),
            )
        if not admitted:
            self.metrics.record_rejected(shard.shard_id)
            if self._keep_responses:
                self.responses.append(
                    SampleResponse(
                        request.request_id, RequestStatus.REJECTED, shard.shard_id, None,
                        0.0, 0.0, now, 0,
                    )
                )
            return request
        self.metrics.record_admitted()
        shard.offer(request)
        return request

    # -- run control / views ----------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Advance the clock (drains all pending work when ``until=None``)."""
        self.sim.run(until=until)

    @property
    def completed(self) -> list[SampleResponse]:
        """Served responses only, in completion order."""
        return [r for r in self.responses if r.status is RequestStatus.OK]

    @property
    def failed(self) -> list[SampleResponse]:
        """Churn-failed responses (dispatch retries exhausted)."""
        return [r for r in self.responses if r.status is RequestStatus.FAILED]

    @property
    def healthy_shards(self) -> int:
        """How many shards currently report healthy."""
        return sum(1 for s in self.shards if s.healthy)

    @property
    def pending(self) -> int:
        """Admitted requests not yet completed."""
        return sum(s.load for s in self.shards)

    def summary(self) -> dict:
        """Metrics summary with throughput over the elapsed sim time."""
        return self.metrics.summary(elapsed=self.sim.now)


def build_substrates(
    n: int,
    shards: int,
    *,
    substrate: str = "ideal",
    rngs: RngRegistry | None = None,
    seed: int = 0,
    chord_m: int = 20,
    kad_bits: int = 32,
    kad_k: int = 20,
    kad_alpha: int = 3,
    replicate_rings: bool = False,
    transport: str = "sync",
    sim: Simulator | None = None,
) -> list:
    """Construct the shard substrates for :func:`build_service`.

    ``substrate`` is ``ideal`` (analytic oracle, bulk-capable),
    ``chord`` or ``kademlia`` (message-level simulators; the engine
    degrades to its per-call path), or ``mixed`` (alternating ideal and
    chord -- the oracle-vs-overlay split the mixed-shard tests pin).
    ``replicate_rings=True`` gives every ideal shard the *same* ring
    (one peer population served by many shards) instead of independent
    rings -- what uniformity tests over the union of shards want.

    ``transport="async"`` gives each overlay shard the message-level
    :class:`~repro.sim.async_net.AsyncRpcTransport`; its deliveries live
    on ``sim`` (required, and it must be the clock the caller drives --
    the service's).  The oracle has no transport, so ``ideal``/``mixed``
    refuse the switch.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if substrate not in SUBSTRATES:
        raise ValueError(f"unknown substrate {substrate!r}; choose from {SUBSTRATES}")
    if transport not in ("sync", "async"):
        raise ValueError(f"unknown transport {transport!r}; choose sync or async")
    if transport == "async" and substrate not in ("chord", "kademlia"):
        raise ValueError(
            f"substrate {substrate!r} has no message transport to make async"
        )
    if transport == "async" and sim is None:
        raise ValueError("the async transport needs the shared Simulator")
    rngs = rngs if rngs is not None else RngRegistry(seed)
    extra: dict = {}
    if transport == "async":
        extra = {"async_transport": True, "sim": sim}
    out = []
    for shard_id in range(shards):
        kind = substrate
        if substrate == "mixed":
            kind = "ideal" if shard_id % 2 == 0 else "chord"
        stream = "shared.ring" if replicate_rings else f"shard{shard_id}.ring"
        ring_rng = random.Random(rngs.fresh(stream).getrandbits(64))
        if kind == "ideal":
            out.append(IdealDHT.random(n, ring_rng))
        elif kind == "kademlia":
            out.append(
                KademliaNetwork.build_dht(
                    n, m=kad_bits, k=kad_k, alpha=kad_alpha, rng=ring_rng, **extra
                )
            )
        else:
            out.append(ChordNetwork.build_dht(n, m=chord_m, rng=ring_rng, **extra))
    return out


def build_service(
    n: int = 1000,
    shards: int = 2,
    *,
    substrate: str = "ideal",
    seed: int = 0,
    chord_m: int = 20,
    kad_bits: int = 32,
    kad_k: int = 20,
    kad_alpha: int = 3,
    replicate_rings: bool = False,
    transport: str = "sync",
    **service_kwargs,
) -> SamplingService:
    """A ready-to-drive service: substrates built and wired from one seed.

    ``transport="async"`` builds the shard overlays on the message-level
    async transport, sharing one simulator between the shard rings and
    the service so RPC deliveries and service events interleave on a
    single clock.  The sync default is bit-identical to the historical
    construction (no extra kwargs reach the builders, no extra Simulator
    is created).
    """
    rngs = RngRegistry(seed)
    sim = None
    if transport == "async":
        sim = service_kwargs.get("sim")
        if sim is None:
            sim = Simulator()
            service_kwargs["sim"] = sim
    subs = build_substrates(
        n,
        shards,
        substrate=substrate,
        rngs=rngs,
        chord_m=chord_m,
        kad_bits=kad_bits,
        kad_k=kad_k,
        kad_alpha=kad_alpha,
        replicate_rings=replicate_rings,
        transport=transport,
        sim=sim,
    )
    return SamplingService(subs, rngs=rngs, **service_kwargs)


def build_load(
    service: SamplingService,
    *,
    rate: float,
    total: int,
    seed: int = 0,
    stream: str = "arrivals",
    shape=None,
    keys=None,
) -> LoadGenerator:
    """An open-loop Poisson generator wired to ``service.submit``.

    The standard drive idiom -- arrivals on the service's own clock,
    interarrival randomness on its own named seed stream -- in one
    place, so the CLI, benchmarks, examples and tests stay in lockstep.
    ``shape``/``keys`` (see :mod:`repro.service.shapes`) modulate the
    arrival rate and attach skewed request keys; both default off.
    Call ``.start()`` then ``service.run()``.
    """
    return LoadGenerator(
        service.sim,
        service.submit,
        rate=rate,
        total=total,
        rng=RngRegistry(seed).stream(stream),
        shape=shape,
        keys=keys,
    )
