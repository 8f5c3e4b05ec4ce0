"""Dispatch strategies: how a flushed batch reaches the sampling core.

Two strategies serve the same contract -- ``execute(k)`` returns ``k``
uniform draws plus the substrate cost attributable to the call:

- :class:`BatchDispatch` routes the whole batch through
  :meth:`repro.core.engine.BatchSampler.sample_many_attributed`, PR 1's
  vectorized fast path (or its per-call fallback on non-bulk substrates
  such as live Chord);
- :class:`ScalarDispatch` issues ``k`` independent
  :meth:`repro.core.sampler.RandomPeerSampler.sample` calls, the
  per-request baseline a naive frontend would use.

Both strategies are deterministic given their sampler's RNG; simulated
service time is derived from the returned cost by
:class:`ServiceTimeModel`, so the benchmark's sim-time and wall-time
comparisons come from the same executions.

Churn boundary
--------------

On a live substrate a dispatch can die: routing holes raise
:class:`~repro.dht.api.PeerUnreachableError`, stale size estimates raise
:class:`~repro.core.errors.SamplingError`.  Both strategies convert
those -- and only those -- into :class:`DispatchError`, the single
retryable failure type the shard worker handles (retry with backoff,
then fail the batch explicitly).  Programming errors keep propagating.
:meth:`refresh` is the recovery hook: re-estimate the substrate size so
the next attempt runs with fresh parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..core.engine import BatchSampler, BatchSampleResult
from ..core.errors import SamplingError
from ..core.sampler import RandomPeerSampler
from ..dht.api import CostSnapshot, PeerRef, PeerUnreachableError

__all__ = [
    "DispatchError",
    "Execution",
    "BatchDispatch",
    "ScalarDispatch",
    "ServiceTimeModel",
]

#: Substrate failures a dispatch may surface under churn -- the complete
#: set of exception types :class:`DispatchError` wraps.
_RETRYABLE = (SamplingError, PeerUnreachableError)


class DispatchError(RuntimeError):
    """A dispatch attempt failed for churn-related, retryable reasons."""


class Execution(NamedTuple):
    """Result of serving one dispatched batch of ``k`` requests.

    ``dispatches`` is how many dispatch overheads the execution incurred:
    1 for a coalesced micro-batch, ``k`` for per-request scalar serving.
    :class:`ServiceTimeModel` charges overhead per dispatch, so timing
    stays honest for any strategy/batch-size composition.  The batch path
    returns the engine's
    :class:`~repro.core.engine.BatchSampleResult` itself, which carries
    the same fields (its ``dispatches`` is always 1).
    """

    peers: tuple[PeerRef, ...]
    cost: CostSnapshot
    trials: int
    dispatches: int = 1


class _SamplerDispatch:
    """Shared churn boundary: execute with wrapping, refresh with a net.

    Subclasses implement :meth:`_run`; this base converts the substrate's
    retryable failures into :class:`DispatchError` and provides the
    common :meth:`refresh` recovery hook.
    """

    def __init__(self, sampler):
        self.sampler = sampler

    def execute(self, k: int) -> Execution | BatchSampleResult:
        try:
            return self._run(k)
        except _RETRYABLE as exc:
            raise DispatchError(f"{self.name} dispatch of {k} died: {exc}") from exc

    def _run(self, k: int) -> Execution | BatchSampleResult:
        raise NotImplementedError

    def refresh(self) -> bool:
        """Re-estimate the substrate size; False if even that failed."""
        try:
            self.sampler.refresh()
        except _RETRYABLE:
            return False
        return True

    def warm(self) -> bool:
        """Pre-build the sampler's substrate routing caches (best effort).

        After a churn recovery the Chord substrate's lockstep snapshot is
        stale; rebuilding it here -- off the dispatch path, right after
        :meth:`refresh` -- keeps the re-admitted shard's first batch from
        paying the rebuild inside its service time.  Free of charges and
        randomness; False when the sampler has no caches to warm.
        """
        warm = getattr(self.sampler, "warm", None)
        return bool(warm()) if warm is not None else False


class BatchDispatch(_SamplerDispatch):
    """Micro-batch execution through a :class:`BatchSampler`."""

    name = "batch"
    sampler: BatchSampler

    def _run(self, k: int) -> BatchSampleResult:
        return self.sampler.sample_many_attributed(k)


class ScalarDispatch(_SamplerDispatch):
    """Per-request execution through a :class:`RandomPeerSampler`."""

    name = "scalar"
    sampler: RandomPeerSampler

    def _run(self, k: int) -> Execution:
        peers = []
        cost = CostSnapshot()
        trials = 0
        for _ in range(k):
            stats = self.sampler.sample_with_stats()
            peers.append(stats.peer)
            cost = cost + stats.cost
            trials += stats.trials
        return Execution(peers=tuple(peers), cost=cost, trials=trials, dispatches=k)


@dataclass(frozen=True, slots=True)
class ServiceTimeModel:
    """Converts an execution's cost into simulated service time.

    ``service_time = dispatches * dispatch_overhead
    + cost.latency * time_per_latency``.

    ``dispatch_overhead`` is the fixed per-dispatch cost (connection
    setup, scheduling, one RPC round-trip's framing) that micro-batching
    exists to amortize: a coalesced batch of 32 pays it once
    (``dispatches=1``), per-request scalar serving of the same 32
    requests pays it 32 times (``dispatches=32``) -- the
    :class:`Execution` carries the count, so timing stays honest however
    strategies and batch sizes are composed.  ``time_per_latency``
    scales the substrate's abstract latency units (one ``next`` = 1)
    into service-clock units; the default puts one request's sampling
    work (``1/(n lambda)`` trials in expectation, ~26 with the paper's
    constants, each an ``h``, plus walks of at most ``walk_budget + 1``
    hops in all; Theorem 7) at about half of one dispatch overhead on
    a 1e5-peer ideal ring (~500 latency units), so batching effects are
    visible at default settings.
    """

    dispatch_overhead: float = 1.0
    time_per_latency: float = 0.001

    def service_time(self, execution: Execution) -> float:
        return (
            execution.dispatches * self.dispatch_overhead
            + execution.cost.latency * self.time_per_latency
        )
