"""Fault injection: structured network misbehaviour and retry policy.

The transport's baseline ``loss_rate`` models uniform Bernoulli packet
loss; real outages are *structured* -- partitions, grey failures, loss
bursts, correlated mass-kill.  This package supplies those as first-
class, deterministic, replayable objects:

- :class:`~repro.faults.state.FaultState` -- the live fault surface an
  :class:`~repro.sim.network.RpcTransport` consults per delivery
  (install with ``transport.install_faults(FaultState())``);
- :class:`~repro.faults.plan.FaultPlan` and its injector events
  (:class:`~repro.faults.plan.MassKill`,
  :class:`~repro.faults.plan.Partition`,
  :class:`~repro.faults.plan.GreyFailure`,
  :class:`~repro.faults.plan.LossBurst`) -- a declarative timeline of
  faults on the simulation clock;
- :class:`~repro.faults.retry.RetryPolicy` -- the shared bounded-retry/
  exponential-backoff/seeded-jitter discipline: its ``backoff`` decides
  every lookup retry (the DHT adapters', the fault lab's async probe's),
  and the service layer's shard workers read its budget and delays.

The scenario presets built on these live in
:mod:`repro.scenarios.faults`; ``benchmarks/bench_faults.py`` sweeps
kill fraction x retry policy into ``BENCH_faults.json``.
"""

from .plan import INJECTORS, FaultPlan, GreyFailure, LossBurst, MassKill, Partition
from .retry import RetryPolicy
from .state import PARTITION_MODES, FaultState, GreyProfile

__all__ = [
    "FaultPlan",
    "FaultState",
    "GreyFailure",
    "GreyProfile",
    "INJECTORS",
    "LossBurst",
    "MassKill",
    "PARTITION_MODES",
    "Partition",
    "RetryPolicy",
]
