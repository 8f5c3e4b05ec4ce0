"""Declarative dynamic-membership scenarios: what to run, not how.

A :class:`ScenarioSpec` pins every knob of one churn experiment -- the
substrate shape (peers per shard, shard count, identifier bits), the
membership dynamics (churn rate, crash fraction, stabilization cadence),
the offered load, and the serving configuration -- as one frozen,
JSON-able record.  The runner (:mod:`repro.scenarios.runner`) turns a
spec into a live system; nothing about the experiment lives anywhere
else, so a spec plus the repo version *is* the experiment.

:data:`PRESETS` names the canonical regimes (``static``, ``smoke``,
``moderate``, ``crash-heavy``) used by the CLI, the churn benchmark and
CI; :func:`sweep` expands a base spec over the churn-rate x
crash-fraction x stabilization-cadence grid for degradation studies.

All randomness in a scenario derives from ``spec.seed`` through named
:class:`~repro.sim.rng.RngRegistry` substreams (ring construction,
churn interarrivals, trial points, request arrivals), so two runs of
the same spec are bit-for-bit identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.adversary.state import LIE_STRATEGIES
from repro.faults.retry import RetryPolicy
from repro.service.shapes import LOAD_SHAPES

__all__ = ["BACKENDS", "ScenarioSpec", "PRESETS", "TRANSPORTS", "preset", "sweep"]

#: Message-level substrates the runner can drive.  ``chord`` stabilizes
#: a successor ring; ``kademlia`` refreshes k-buckets -- same churn
#: process, same serving stack, different liveness model.
BACKENDS = ("chord", "kademlia")

#: How shard rings move messages.  ``sync`` is the historical
#: call-and-return transport (bit-identical defaults everywhere);
#: ``async`` schedules each request/reply as its own delivery event
#: with real timeout events (see :mod:`repro.sim.async_net`).
TRANSPORTS = ("sync", "async")


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One dynamic-membership serving experiment, fully pinned.

    Time is the simulation clock shared by arrivals, micro-batching,
    stabilization and churn; ``churn_rate`` is *per shard* (each shard
    owns an independent ring with its own churn process), while ``rate``
    is the offered request load on the whole service.
    ``stabilize_interval=0`` disables periodic maintenance -- the
    pathological regime where only lookup-time repair fights churn.
    For the ``kademlia`` backend, ``stabilize_interval`` paces bucket
    refresh (its stabilization analogue) and ``chord_m`` is read as the
    generic identifier width of the shard overlays.
    """

    name: str
    # -- substrate shape --
    backend: str = "chord"  # which message-level overlay each shard runs
    transport: str = "sync"  # sync (call-and-return) | async (message-level)
    n: int = 64  # initial peers per shard ring
    shards: int = 2
    chord_m: int = 16  # identifier bits per ring (either backend)
    kad_k: int = 8  # Kademlia bucket size (scenario-sized)
    kad_alpha: int = 3  # Kademlia lookup concurrency
    # -- membership dynamics --
    churn_rate: float = 0.0  # Poisson membership events / time unit / shard
    crash_fraction: float = 0.5  # P(departure is a crash, not a leave)
    stabilize_interval: float = 4.0  # periodic maintenance cadence; 0 = off
    min_size: int = 8  # churn never shrinks a ring below this
    # -- offered load --
    rate: float = 1.0  # Poisson request arrivals / time unit (service-wide)
    requests: int = 500
    # -- workload shape (see repro.service.shapes; defaults = legacy load) --
    load_shape: str = "constant"  # constant | diurnal | flash
    shape_amplitude: float = 1.0  # swing (diurnal) / burst scale (flash)
    shape_period: float = 200.0  # diurnal period / flash timing base
    key_skew: float = 0.0  # Zipf exponent for request keys; 0 = unkeyed
    # -- adversary (see repro.adversary; fraction 0 = every peer honest) --
    adv_fraction: float = 0.0  # Byzantine fraction of each shard's ring
    adv_strategy: str = "lookup"  # lookup | census | eclipse
    committee_size: int = 16  # committee draws per capture election
    # -- serving configuration --
    dispatch: str = "batch"
    policy: str = "least-loaded"
    max_batch: int = 16
    max_queue: int = 256
    max_retries: int = 3
    retry_backoff: float = 2.0
    # Shard retry escalation (see repro.faults.retry.RetryPolicy): the
    # defaults -- flat backoff, no jitter -- reproduce the historical
    # worker behaviour bit for bit, so presets are unchanged.
    retry_factor: float = 1.0
    retry_jitter: float = 0.0
    # -- run control --
    seed: int = 0
    max_sim_time: float = 50_000.0  # hard stop against pathological stalls
    recovery_rounds: int = 80  # stabilization-round budget after churn stops

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; choose from {TRANSPORTS}"
            )
        if self.n < 1 or self.shards < 1 or self.requests < 1:
            raise ValueError("n, shards and requests must be positive")
        if self.kad_k < 1 or self.kad_alpha < 1:
            raise ValueError("kad_k and kad_alpha must be positive")
        if self.n > (1 << self.chord_m):
            raise ValueError(
                f"identifier space 2^{self.chord_m} too small for n={self.n}"
            )
        if self.churn_rate < 0:
            raise ValueError("churn_rate must be non-negative")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ValueError("crash_fraction must be in [0, 1]")
        if self.stabilize_interval < 0:
            raise ValueError("stabilize_interval must be non-negative")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.load_shape not in LOAD_SHAPES:
            raise ValueError(
                f"unknown load shape {self.load_shape!r}; choose from {LOAD_SHAPES}"
            )
        if self.shape_amplitude < 0:
            raise ValueError("shape_amplitude must be non-negative")
        if self.shape_period <= 0:
            raise ValueError("shape_period must be positive")
        if self.key_skew < 0:
            raise ValueError("key_skew must be non-negative")
        if not 0.0 <= self.adv_fraction < 1.0:
            raise ValueError("adv_fraction must be in [0, 1)")
        if self.adv_strategy not in LIE_STRATEGIES:
            raise ValueError(
                f"unknown lie strategy {self.adv_strategy!r}; "
                f"choose from {LIE_STRATEGIES}"
            )
        if self.committee_size < 1:
            raise ValueError("committee_size must be positive")
        if self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        self.retry_policy()  # RetryPolicy checks the retry fields

    @property
    def churning(self) -> bool:
        return self.churn_rate > 0

    @property
    def adversarial(self) -> bool:
        return self.adv_fraction > 0

    def with_(self, **overrides) -> "ScenarioSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **overrides)

    def retry_policy(self) -> RetryPolicy:
        """The shard workers' retry discipline.  With the default flat
        shape (factor 1, no jitter) it is the legacy ``max_retries`` /
        ``retry_backoff`` pair."""
        return RetryPolicy(
            attempts=self.max_retries + 1,
            base_delay=self.retry_backoff,
            factor=self.retry_factor,
            jitter=self.retry_jitter,
        )

    def to_record(self) -> dict:
        """The spec as a JSON-ready dict (keys in declaration order)."""
        return dataclasses.asdict(self)


def _base(**kw) -> ScenarioSpec:
    return ScenarioSpec(**kw)


#: The canonical regimes.  ``static`` is the churn-free control every
#: sweep compares against; ``smoke`` is the CI-sized moderate-churn run;
#: ``moderate`` sees ~25% membership turnover over the run; in
#: ``crash-heavy`` departures are almost always fail-stop crashes and
#: stabilization is slowed, so lookups keep hitting unrepaired holes.
PRESETS: dict[str, ScenarioSpec] = {
    "static": _base(name="static", churn_rate=0.0),
    "smoke": _base(
        name="smoke",
        n=32,
        shards=2,
        chord_m=12,
        churn_rate=0.05,
        crash_fraction=0.5,
        stabilize_interval=2.0,
        rate=1.0,
        requests=150,
        max_batch=8,
    ),
    "moderate": _base(
        name="moderate",
        churn_rate=0.05,
        crash_fraction=0.5,
        stabilize_interval=2.0,
    ),
    "crash-heavy": _base(
        name="crash-heavy",
        churn_rate=0.15,
        crash_fraction=0.9,
        stabilize_interval=6.0,
    ),
    # Adversarial & heterogeneous regimes (the PR-8 scenario lab).
    # ``byzantine`` is the smoke-sized deflection regime: one peer in
    # five lies in lookups, membership is otherwise static so every
    # degradation is attributable to the lies.  ``eclipse`` poisons
    # Kademlia routing tables wholesale -- the substrate where observed
    # contacts persist.  ``flash-crowd`` leaves every peer honest but
    # slams an 8x arrival burst of Zipf-skewed keys through rendezvous
    # routing, the heterogeneous-load half of the lab.
    "byzantine": _base(
        name="byzantine",
        n=32,
        shards=2,
        chord_m=12,
        stabilize_interval=2.0,
        rate=1.0,
        requests=150,
        max_batch=8,
        adv_fraction=0.2,
        adv_strategy="lookup",
    ),
    "eclipse": _base(
        name="eclipse",
        backend="kademlia",
        n=32,
        shards=2,
        chord_m=12,
        stabilize_interval=2.0,
        rate=1.0,
        requests=150,
        max_batch=8,
        adv_fraction=0.2,
        adv_strategy="eclipse",
    ),
    "flash-crowd": _base(
        name="flash-crowd",
        n=32,
        shards=2,
        chord_m=12,
        stabilize_interval=2.0,
        rate=1.0,
        requests=200,
        max_batch=8,
        policy="rendezvous",
        load_shape="flash",
        shape_amplitude=7.0,
        shape_period=200.0,
        key_skew=1.1,
    ),
}


def preset(name: str, **overrides) -> ScenarioSpec:
    """A named preset, optionally customised (``preset("smoke", seed=3)``)."""
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        )
    spec = PRESETS[name]
    return spec.with_(**overrides) if overrides else spec


def sweep(
    base: ScenarioSpec,
    churn_rates,
    crash_fractions=(0.5,),
    stabilize_intervals=(None,),
) -> list[ScenarioSpec]:
    """The full churn-rate x crash-fraction x cadence grid over ``base``.

    ``None`` in ``stabilize_intervals`` keeps the base cadence.  Specs
    are named ``{base.name}/churn{r}-crash{c}-stab{s}`` so sweep output
    stays self-describing; grid order is row-major (rate outermost).
    """
    out = []
    for rate in churn_rates:
        for crash in crash_fractions:
            for interval in stabilize_intervals:
                cadence = base.stabilize_interval if interval is None else interval
                out.append(
                    base.with_(
                        name=f"{base.name}/churn{rate:g}-crash{crash:g}-stab{cadence:g}",
                        churn_rate=rate,
                        crash_fraction=crash,
                        stabilize_interval=cadence,
                    )
                )
    return out
