"""Continuation-driven Chord lookups for the async message-level transport.

The coroutines here are the event-clock twins of
:meth:`ChordNode.lookup` and :meth:`ChordNode.lookup_recursive`: the
same routing decisions (every step goes through ``lookup_step`` with the
same excluded tuples), but every remote exchange is a yielded
:class:`~repro.sim.async_net.Call`, so the lookup's pending state lives
across scheduled deliveries rather than inside a blocking call chain.
That is what lets a lookup survive a peer dying *mid-flight*: the
in-flight hop times out as a real event, the coroutine resumes with
:class:`~repro.sim.network.RpcTimeout` thrown in, and routing falls back
to the next live successor-list entry -- all under a per-request
deadline budget measured on the sim clock.

Two modes:

* :func:`iterative_lookup` -- the querier drives every hop, keeping a
  *path stack* of nodes that have answered so far; when the node it
  would re-ask has itself died, it backs down the stack instead of
  aborting (the sync path's one weakness under mid-lookup churn).
* :func:`forward_hop` / :func:`lookup_recursive_async` -- recursive
  forwarding where each hop is an acked request (the ack means
  "accepted", so forwarding still pipelines), letting a forwarder
  notice a dead next hop and re-issue to the next live successor.
  The owner's answer travels as one direct message to the querier
  (:meth:`ChordNode.claim_async_lookup`), preserving the sync mode's
  direct-reply message economy; a querier-side deadline event bounds
  the whole request.

Only meaningful on :class:`~repro.sim.async_net.AsyncRpcTransport`
endpoints (``spawn``/``cast``/``sim`` are async-plane surface); the
sync default never imports this module at lookup time.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from ...sim.async_net import Call, Future
from ...sim.network import RpcTimeout
from .node import LookupError_, LookupResult, hop_budget

if TYPE_CHECKING:
    from .node import ChordNode

__all__ = [
    "forward_hop",
    "iterative_lookup",
    "lookup_async",
    "lookup_recursive_async",
]


def iterative_lookup(
    node: "ChordNode",
    target_id: int,
    *,
    max_hops: int | None = None,
    deadline: float | None = None,
) -> Generator:
    """Coroutine body of an iterative lookup (spawn via :func:`lookup_async`).

    Mirrors :meth:`ChordNode.lookup` exchange-for-exchange under failure-
    free conditions (same ``lookup_step`` sequence, same single owner
    ``ping``), which is what the cross-transport equivalence property
    pins.  Under churn it is *stronger* than the sync path: the nodes
    that answered so far form a stack, and when the node we would re-ask
    has died we back down the stack (ending at ourselves, answered
    locally) instead of aborting the lookup.

    ``deadline`` is a sim-clock budget for the whole request, checked
    between exchanges; ``None`` leaves only the hop budget.
    """
    ep = node._transport
    budget = max_hops if max_hops is not None else hop_budget(node.m)
    expires = None if deadline is None else ep.now + deadline
    excluded: tuple[int, ...] = ()
    #: Nodes that have answered a routing step, query order; the bottom
    #: entry is ourselves, so backing down always terminates locally.
    path = [node.node_id]
    kind, nxt = node.lookup_step(target_id)
    hops = 0

    def overdue() -> bool:
        return expires is not None and ep.now >= expires

    def fail(why: str) -> LookupError_:
        return LookupError_(f"lookup of {target_id} from {node.node_id}: {why}")

    def ask_down_the_path() -> Generator:
        """Re-ask the most recent answerer, backing down past casualties."""
        nonlocal excluded, hops
        while True:
            if overdue():
                raise fail(f"deadline of {deadline:g} sim-seconds exceeded")
            current = path[-1]
            if current == node.node_id:
                return node.lookup_step(target_id, excluded)
            try:
                return (yield Call(current, "lookup_step", target_id, excluded))
            except RpcTimeout:
                excluded = excluded + (current,)
                path.pop()
                hops += 1
                if hops >= budget:
                    raise fail(f"no live path within {budget} hops") from None

    while True:
        if overdue():
            raise fail(f"deadline of {deadline:g} sim-seconds exceeded")
        if kind == "done":
            owner = nxt
            if owner == node.node_id:
                return LookupResult(node_id=owner, hops=hops)
            # Verify the owner answers, as the sync path does with one
            # ping; a stale pointer to a fresh crash gets excluded and
            # the query re-asked, falling to the live successor.
            try:
                yield Call(owner, "ping")
                return LookupResult(node_id=owner, hops=hops)
            except RpcTimeout:
                pass
            excluded = excluded + (owner,)
            hops += 1
            if hops >= budget:
                raise fail(f"no live owner within {budget} hops")
            kind, nxt = yield from ask_down_the_path()
            continue
        if hops >= budget:
            raise fail(f"exceeded {budget} hops")
        try:
            step = yield Call(nxt, "lookup_step", target_id, excluded)
        except RpcTimeout:
            # The hop died with our query in flight: route around it.
            excluded = excluded + (nxt,)
            hops += 1
            kind, nxt = yield from ask_down_the_path()
            continue
        hops += 1
        path.append(nxt)
        kind, nxt = step


def lookup_async(
    node: "ChordNode",
    target_id: int,
    *,
    max_hops: int | None = None,
    deadline: float | None = None,
) -> Future:
    """Start an iterative lookup on the async plane; resolves to
    :class:`LookupResult`, fails with :class:`LookupError_`."""
    return node._transport.spawn(
        iterative_lookup(node, target_id, max_hops=max_hops, deadline=deadline)
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
