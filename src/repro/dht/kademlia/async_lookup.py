"""Genuinely concurrent Kademlia lookups for the async message-level transport.

The sync :meth:`KademliaNode.iterative_find_node` documents its own
simplification: the transport is synchronous, so ``alpha`` shapes the
candidate frontier but the probes of a round still run one after
another.  On :class:`~repro.sim.async_net.AsyncRpcTransport` that
simplification disappears: :class:`_ParallelFindNode` keeps ``alpha``
probes *in flight simultaneously*, folds each arrival into the
shortlist the moment its reply lands (out of order is fine -- replies
are independent scheduled events), immediately re-aims a freed slot at
the new best unqueried candidate, and cancels stragglers outright when
the frontier converges while they are still on the wire (their late
replies are dropped and counted by the transport).

With ``alpha == 1`` and no failures the probe sequence degenerates to
exactly the sync loop's -- the property the cross-transport equivalence
test pins.

:func:`find_successor_async` spawns the one aligned-block successor
search, :func:`~repro.dht.kademlia.node.successor_search`, that
:meth:`KademliaNode.find_successor` drives inline; here each probe is an
awaited :func:`find_node_async` future, and the learned-owner ping an
event-scheduled request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...sim.async_net import Future
from .node import LookupOutcome, _Shortlist, lookup_budget, successor_search

if TYPE_CHECKING:
    from .node import KademliaNode

__all__ = ["find_node_async", "find_successor_async"]


class _ParallelFindNode:
    """One in-progress alpha-concurrent iterative lookup (see module doc)."""

    __slots__ = (
        "node", "ep", "target", "excluded", "thorough",
        "budget", "sl", "in_flight", "rpcs", "failures", "future",
    )

    def __init__(
        self,
        node: "KademliaNode",
        target_id: int,
        excluded: frozenset,
        max_rpcs: int | None,
        thorough: bool,
    ):
        self.node = node
        self.ep = node._transport
        self.target = target_id
        self.excluded = excluded
        self.thorough = thorough
        self.budget = (
            max_rpcs if max_rpcs is not None else lookup_budget(node.m, node.k)
        )
        self.sl = _Shortlist(target=target_id)
        #: contact id -> AsyncCall, the probes currently on the wire.
        self.in_flight: dict[int, Any] = {}
        self.rpcs = 0
        self.failures = 0
        self.future = Future()

    def start(self) -> Future:
        node = self.node
        self.sl.known.add(node.node_id)
        self.sl.queried.add(node.node_id)  # we answer for ourselves, free
        self.sl.add(
            i
            for i in node.closest_known(self.target, node.k)
            if i not in self.excluded
        )
        self._pump()
        self._maybe_finish()  # a contact-less node converges immediately
        return self.future

    def _pump(self) -> None:
        """Aim every free slot at the best uncovered frontier candidate."""
        node = self.node
        while len(self.in_flight) < node.alpha and self.rpcs < self.budget:
            pending = [
                c
                for c in node._pending(self.sl, self.thorough)
                if c not in self.in_flight
            ]
            if not pending:
                return
            contact = pending[0]
            self.rpcs += 1
            self.in_flight[contact] = self.ep.call(
                contact,
                "find_node",
                self.target,
                node.node_id,
                on_reply=lambda found, c=contact: self._on_reply(c, found),
                on_timeout=lambda _exc, c=contact: self._on_timeout(c),
            )

    def _on_reply(self, contact: int, found) -> None:
        del self.in_flight[contact]
        self.sl.queried.add(contact)
        self.node.observe(contact)
        self.sl.add(i for i in found if i not in self.excluded)
        self._pump()
        self._maybe_finish()

    def _on_timeout(self, contact: int) -> None:
        del self.in_flight[contact]
        self.failures += 1
        self.sl.failed.add(contact)
        self.node.forget(contact)
        self._pump()
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.future.done:
            return
        pending = self.node._pending(self.sl, self.thorough)
        if pending:
            # Converging: either probes are out, or _pump can still aim
            # one (it just did).  Only a dead end -- budget gone, wire
            # empty, frontier unanswered -- falls through to finish.
            if self.in_flight or self.rpcs < self.budget:
                return
        elif self.in_flight:
            # Frontier fully answered while probes to since-displaced
            # candidates are still on the wire: stragglers, cancel them.
            for call in self.in_flight.values():
                call.cancel()
            self.in_flight.clear()
        node = self.node
        self.future.resolve(
            LookupOutcome(
                ids=tuple(self.sl.best(node.k)),
                queried=frozenset(self.sl.queried - self.sl.failed),
                rpcs=self.rpcs,
                failures=self.failures,
                complete=(self.failures == 0 and not pending),
            )
        )


def find_node_async(
    node: "KademliaNode",
    target_id: int,
    excluded: frozenset = frozenset(),
    max_rpcs: int | None = None,
    thorough: bool = False,
) -> Future:
    """Alpha-concurrent :meth:`KademliaNode.iterative_find_node`.

    Resolves to the same :class:`LookupOutcome` shape; like the sync
    path, failures never fail the future -- ``complete`` carries the
    verdict and the successor layer escalates.
    """
    return _ParallelFindNode(node, target_id, excluded, max_rpcs, thorough).start()


def _find_node_awaited(node: "KademliaNode", target_id: int, excluded: frozenset):
    """The async plane's probe: an awaited :func:`find_node_async`."""
    return (yield find_node_async(node, target_id, excluded=excluded))


def find_successor_async(
    node: "KademliaNode", target_id: int, max_probes: int | None = None
) -> Future:
    """Spawn :func:`~repro.dht.kademlia.node.successor_search` from
    ``node`` on the async plane.

    Resolves to :class:`~repro.dht.kademlia.node.SuccessorResult`; fails
    with :class:`~repro.dht.kademlia.node.KademliaLookupError_` on a
    truncated census or an exhausted probe budget, exactly where the
    sync search raises.
    """
    return node._transport.spawn(
        successor_search(node, target_id, max_probes, _find_node_awaited)
    )
