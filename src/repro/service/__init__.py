"""Sampling-as-a-service: a deterministic serving layer over the engine.

PR 1's :class:`~repro.core.engine.BatchSampler` made bulk draws fast;
this package makes them *servable*.  Single-sample requests enter
through :meth:`SamplingService.submit`, coalesce in per-shard
micro-batching queues (an idle shard dispatches a request at once; a
busy one sends what queued behind it, up to ``max_batch``, when its
batch completes), execute on the engine's bulk fast path, and come back
as per-request responses stamped with queue and service latency.
Routing policies spread traffic across independent substrate shards,
admission control turns overload into explicit rejections, and an
open-loop Poisson :class:`LoadGenerator` drives the whole thing on the
simulation clock -- deterministically, from a single seed.

The layer is churn-aware: a dispatch killed by membership change
(:class:`DispatchError`) marks its shard unhealthy, the router sheds
traffic to healthy shards, the worker re-estimates the population and
retries with backoff, and exhausted retries terminate the batch with
explicit ``FAILED`` responses -- never a silent drop.  The scenario lab
(:mod:`repro.scenarios`) exercises all of this against actively
churning Chord rings.

Layering (see docs/ARCHITECTURE.md)::

    loadgen -> SamplingService.submit -> ShardRouter (health-aware)
            -> AdmissionController -> ShardWorker (micro-batch queue,
               retry/backoff/FAILED) -> dispatch strategy
            -> BatchSampler / RandomPeerSampler -> DHT substrate
"""

from .admission import AdmissionController
from .batching import ShardWorker
from .core import (
    DISPATCH_MODES,
    SUBSTRATES,
    SamplingService,
    build_load,
    build_service,
    build_substrates,
)
from .dispatch import (
    BatchDispatch,
    DispatchError,
    Execution,
    ScalarDispatch,
    ServiceTimeModel,
)
from .loadgen import LoadGenerator
from .metrics import DEFAULT_RESERVOIR, ServiceMetrics
from .request import RequestStatus, SampleRequest, SampleResponse
from .router import POLICIES, ShardRouter, rendezvous_weight

__all__ = [
    "AdmissionController",
    "BatchDispatch",
    "DEFAULT_RESERVOIR",
    "DISPATCH_MODES",
    "DispatchError",
    "Execution",
    "LoadGenerator",
    "POLICIES",
    "RequestStatus",
    "SUBSTRATES",
    "SampleRequest",
    "SampleResponse",
    "SamplingService",
    "ScalarDispatch",
    "ServiceMetrics",
    "ServiceTimeModel",
    "ShardRouter",
    "ShardWorker",
    "build_load",
    "build_service",
    "build_substrates",
    "rendezvous_weight",
]
