"""Request/response records for the sampling service.

A :class:`SampleRequest` asks for one uniform peer draw; the service
answers with a :class:`SampleResponse` stamped with where the time went
(queued vs. in service) and which shard served it.  Both are named
tuples: immutable, and the serving path creates one of each per request,
so they are built in one step rather than field by field.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..dht.api import PeerRef

__all__ = ["RequestStatus", "SampleRequest", "SampleResponse"]


class RequestStatus(enum.Enum):
    """Terminal state of a request."""

    OK = "ok"
    REJECTED = "rejected"  # admission control refused it (queue bound hit)
    FAILED = "failed"  # dispatch kept dying under churn; retries exhausted


class SampleRequest(NamedTuple):
    """One single-sample request entering the service.

    ``key`` is the routing key consulted by hash-affinity policies
    (rendezvous); it defaults to the request id, which spreads an
    open-loop workload evenly.
    """

    request_id: int
    arrival_time: float
    key: int = -1

    @property
    def routing_key(self) -> int:
        return self.key if self.key >= 0 else self.request_id


class SampleResponse(NamedTuple):
    """The service's answer, with latency attribution.

    ``queue_latency`` is time from arrival to batch dispatch;
    ``service_latency`` from dispatch to completion -- both in simulated
    time units.  ``batch_size`` records how many requests shared the
    dispatch that served this one (1 under scalar dispatch).  Rejected
    requests carry ``peer=None``, zero service latency, and the shard
    that refused them; failed requests (churn-induced, retries
    exhausted) carry ``peer=None`` and the time they burned waiting.
    """

    request_id: int
    status: RequestStatus
    shard_id: int
    peer: PeerRef | None
    queue_latency: float
    service_latency: float
    completion_time: float
    batch_size: int

    @property
    def total_latency(self) -> float:
        return self.queue_latency + self.service_latency
