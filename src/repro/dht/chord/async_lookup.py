"""Chord lookups on the async message-level transport.

Two modes:

* :func:`lookup_async` -- the iterative lookup.  It spawns the one
  client-driven coroutine, :func:`~repro.dht.chord.node.iterative_lookup`,
  that :meth:`ChordNode.lookup` runs inline on the synchronous transport
  and the ring store replays: every exchange is a yielded request, so
  the lookup's pending state lives across scheduled deliveries rather
  than inside a blocking call chain.  A peer that dies *mid-flight*
  times out as a real event, the coroutine resumes with
  :class:`~repro.sim.network.RpcTimeout` thrown in, and routing falls
  back down the path of nodes that have answered.
* :func:`forward_hop` / :func:`lookup_recursive_async` -- recursive
  forwarding where each hop is an acked request (the ack means
  "accepted", so forwarding still pipelines), letting a forwarder
  notice a dead next hop and re-issue to the next live successor.
  The owner's answer travels as one direct message to the querier
  (:meth:`ChordNode.claim_async_lookup`), preserving the sync mode's
  direct-reply message economy; a querier-side deadline event bounds
  the whole request.  This is a different protocol from the sync
  plane's recursive chain (``lookup_recursive``/``forward_lookup``),
  in which a dead hop fails the whole query.

Only meaningful on :class:`~repro.sim.async_net.AsyncRpcTransport`
endpoints (``spawn``/``cast``/``sim`` are async-plane surface); the
sync default never imports this module at lookup time.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from ...sim.async_net import Future
from ...sim.network import Call, RpcTimeout
from .node import LookupError_, LookupResult, hop_budget, iterative_lookup

if TYPE_CHECKING:
    from .node import ChordNode

__all__ = [
    "forward_hop",
    "lookup_async",
    "lookup_recursive_async",
]


def lookup_async(
    node: "ChordNode", target_id: int, *, max_hops: int | None = None
) -> Future:
    """Spawn :func:`~repro.dht.chord.node.iterative_lookup` from ``node``
    on the async plane; resolves to :class:`LookupResult`, fails with
    :class:`LookupError_`."""
    budget = max_hops if max_hops is not None else hop_budget(node.m)
    return node._transport.spawn(
        iterative_lookup(node.node_id, node.lookup_step, target_id, budget)
    )


def forward_hop(
    node: "ChordNode",
    target_id: int,
    querier_id: int,
    token: int,
    hops: int,
    budget: int,
) -> Generator:
    """One forwarder's share of an async recursive lookup.

    Route locally, then hand the query to the next hop with an *acked*
    request (:meth:`ChordNode.async_forward_lookup` replies immediately
    after spawning its own hop, so the chain still pipelines).  No ack
    within the RPC timeout means the next hop is dead: exclude it,
    recompute the step, and re-issue to the next live successor.  When
    the routing step terminates, the owner is asked -- also acked, also
    failed over -- to claim the query with one direct message to the
    querier.  A hop-budget exhaustion simply stops forwarding; the
    querier's deadline event reports the failure.
    """
    excluded: tuple[int, ...] = ()
    while True:
        kind, nxt = node.lookup_step(target_id, excluded)
        if kind == "done":
            if nxt == node.node_id:
                node.claim_async_lookup(target_id, querier_id, token, hops)
                return
            try:
                yield Call(
                    nxt, "claim_async_lookup", target_id, querier_id, token, hops + 1
                )
                return
            except RpcTimeout:
                excluded = excluded + (nxt,)
                hops += 1
                if hops > budget:
                    return
                continue
        if hops >= budget:
            return
        try:
            yield Call(
                nxt, "async_forward_lookup", target_id, querier_id, token,
                hops + 1, budget,
            )
            return
        except RpcTimeout:
            excluded = excluded + (nxt,)
            hops += 1


def lookup_recursive_async(
    node: "ChordNode",
    target_id: int,
    *,
    max_hops: int | None = None,
    deadline: float | None = None,
) -> Future:
    """Start a recursive lookup on the async plane from ``node``.

    Registers a completion token on the querier, arms a deadline event
    (default ``4 x`` the transport timeout -- room for a couple of
    mid-chain failovers), and spawns the first :func:`forward_hop`
    locally, exactly where :meth:`ChordNode.lookup_recursive` runs its
    own first routing step.  The returned :class:`Future` resolves to
    :class:`LookupResult` when the owner's direct answer lands, or fails
    with :class:`LookupError_` when the deadline fires first (dead
    owner, budget exhaustion, or a chain lost to churn).
    """
    ep = node._transport
    budget = max_hops if max_hops is not None else hop_budget(node.m)
    window = deadline if deadline is not None else 4.0 * ep.timeout
    future = Future()
    token = node._async_seq
    node._async_seq = token + 1
    pending = node._async_lookups
    if pending is None:
        pending = node._async_lookups = {}

    def expire() -> None:
        if pending.pop(token, None) is not None:
            future.fail(
                LookupError_(
                    f"recursive lookup of {target_id} from {node.node_id}: "
                    f"no answer within {window:g} sim-seconds"
                )
            )

    expire_event = ep.sim.schedule(window, expire)

    def settle(owner_id: int, hops: int) -> None:
        expire_event.cancel()
        future.resolve(LookupResult(node_id=owner_id, hops=hops))

    pending[token] = settle
    ep.spawn(forward_hop(node, target_id, node.node_id, token, 0, budget))
    return future
