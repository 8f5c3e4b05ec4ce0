"""Shard routing policies: spread single-sample traffic across substrates.

Each shard is an independent DHT substrate behind its own micro-batching
worker; the router decides which shard a request joins.  Policies:

``round-robin``
    Rotate through shards in order -- stateless per-request fairness.
``least-loaded``
    Pick the shard with the fewest queued + in-flight requests (ties go
    to the lowest shard id), the power-of-all-choices join rule.
``rendezvous``
    Highest-random-weight hashing of ``(shard_id, routing_key)`` --
    stable key affinity that survives shard-set changes with minimal
    reshuffling.  Weights come from SHA-256, not Python's ``hash``, so
    routing is identical across processes and ``PYTHONHASHSEED`` values.

Every policy is *health-aware*: shards whose last dispatch died under
churn report ``healthy=False`` while they retry, and the router confines
routing to the healthy subset (for rendezvous this is exactly HRW's
failover: the key moves to its next-highest-weight shard and returns
when the shard recovers).  If no shard is healthy the full set is used
-- the service degrades to retries rather than rejecting everything.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

from .batching import ShardWorker
from .request import SampleRequest

__all__ = ["ShardRouter", "POLICIES", "rendezvous_weight"]

POLICIES = ("round-robin", "least-loaded", "rendezvous")


def rendezvous_weight(shard_id: int, key: int) -> int:
    """Deterministic 64-bit highest-random-weight score for a pair."""
    digest = hashlib.sha256(f"{shard_id}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ShardRouter:
    """Chooses a :class:`~repro.service.batching.ShardWorker` per request."""

    def __init__(self, shards: Sequence[ShardWorker], policy: str = "round-robin"):
        if not shards:
            raise ValueError("need at least one shard")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        self.shards = list(shards)
        self.policy = policy
        self._next = 0  # round-robin cursor

    def route(self, request: SampleRequest) -> ShardWorker:
        shards = pool = self.shards
        for w in shards:
            if not getattr(w, "healthy", True):
                pool = [s for s in shards if getattr(s, "healthy", True)] or shards
                break
        if self.policy == "round-robin":
            shard = pool[self._next % len(pool)]
            self._next += 1
            return shard
        if self.policy == "least-loaded":
            return min(pool, key=lambda w: (w.load, w.shard_id))
        key = request.routing_key
        return max(
            pool, key=lambda w: (rendezvous_weight(w.shard_id, key), -w.shard_id)
        )
