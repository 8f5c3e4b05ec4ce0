"""A Chord node: successor lists, predecessor, finger table, maintenance.

The node follows Stoica et al. [16]: ``find_successor`` routes through
finger tables in ``O(log n)`` hops; ``stabilize``/``notify``/
``fix_fingers``/``check_predecessor`` repair the overlay after joins,
graceful departures, and crashes.  Lookups are *iterative*: the querying
client drives the hop loop, which is what lets the DHT adapter meter
per-operation messages and latency the way Theorem 7 accounts costs.

The routing step and the client's loop are written once each:
:func:`route_step` is one node's answer to "where next?", given its
rows, and :func:`iterative_lookup` is the client's loop, a coroutine
that yields one request per exchange.  Three drivers run that one
coroutine: :meth:`ChordNode.lookup` inline on the synchronous
transport (:func:`~repro.sim.network.run_inline`),
:func:`~repro.dht.chord.async_lookup.lookup_async` spawned on the
asynchronous one, and the ring store's replay
(:func:`~repro.dht.chord.batch._sim_iterative`), which answers each
request from the stored rows and charges what the transport would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...sim.network import RpcTimeout, RpcTransport, run_inline
from ..api import PeerUnreachableError
from .idspace import id_to_point, in_open_closed, in_open_open

if TYPE_CHECKING:
    from .batch import RingSnapshot

__all__ = [
    "ChordNode",
    "LookupError_",
    "LookupResult",
    "hop_budget",
    "iterative_lookup",
    "route_step",
]


def hop_budget(m: int) -> int:
    """Default per-lookup hop budget: ``4 * m``.

    ``O(log n)`` hops suffice on a stabilized ring; the 4x headroom
    absorbs reroutes around fresh crashes.  Shared with the lockstep
    batch engine (:mod:`repro.dht.chord.batch`), which must exhaust a
    lookup at exactly the same hop the live path would.
    """
    return 4 * m


class LookupError_(PeerUnreachableError):
    """An iterative lookup could not complete (routing hole during churn).

    Subclasses :class:`~repro.dht.api.PeerUnreachableError` so
    substrate-agnostic layers (the batch engine, the serving layer) can
    treat it as a retryable liveness failure without importing Chord.
    ``hops`` is the hop count the failed lookup reached, where known.
    """

    def __init__(self, message: str, hops: int | None = None):
        super().__init__(message)
        self.hops = hops


class LookupResult:
    """Outcome of an iterative lookup: the owner id plus hop/cost info."""

    __slots__ = ("node_id", "hops")

    def __init__(self, node_id: int, hops: int):
        self.node_id = node_id
        self.hops = hops

    def __repr__(self) -> str:
        return f"LookupResult(node_id={self.node_id}, hops={self.hops})"


def route_step(
    node_id: int,
    succs: list[int],
    fingers: list[int | None],
    target_id: int,
    excluded: tuple[int, ...] = (),
) -> tuple[str, int]:
    """One node's routing step: ``('done', owner)`` or ``('forward', next)``.

    ``succs`` and ``fingers`` are the node's rows; ``excluded`` lists
    nodes the querying client found unresponsive.  The effective
    successor is the first successor-list entry not excluded, so
    ownership falls through to the first live entry -- the behaviour
    that makes lookups converge mid-churn.  Otherwise the query goes to
    the closest preceding node: the highest finger, then the last
    successor-list entry, strictly inside ``(node_id, target_id)`` and
    not excluded; with none, to the effective successor (the linear
    fallback that guarantees progress).
    """
    succ = node_id
    for s in succs:
        if s not in excluded:
            succ = s
            break
    if succ == node_id or in_open_closed(target_id, node_id, succ):
        return ("done", succ)
    for finger in reversed(fingers):
        if (
            finger is not None
            and finger not in excluded
            and in_open_open(finger, node_id, target_id)
        ):
            return ("forward", finger)
    for s in reversed(succs):
        if s not in excluded and in_open_open(s, node_id, target_id):
            return ("forward", s)
    return ("forward", succ)


def iterative_lookup(client_id: int, local_step, target_id: int, budget: int):
    """The client-driven iterative lookup, as a request-yielding coroutine.

    ``local_step(target_id, excluded)`` is the client's own
    :func:`route_step`, answered locally and uncharged; every other
    exchange is a yielded request -- ``(node, "lookup_step", target_id,
    excluded)`` or the owner's ``(owner, "ping")``, built as plain
    tuples rather than through :func:`~repro.sim.network.Call` because
    this loop runs once per hop of every live lookup -- and the driver
    sends the reply back in or throws :class:`RpcTimeout` in.  Returns a
    :class:`LookupResult`; raises :class:`LookupError_` (with ``hops``)
    when the hop budget runs out.

    The nodes that have answered so far form a path whose bottom entry
    is the client.  A hop that times out is excluded and the latest
    answerer re-asked; a dead owner is excluded the same way after its
    ping.  When the answerer being re-asked times out too, it is
    excluded and popped, and the one below it re-asked, down to the
    client itself.  The budget is checked before each forward, after an
    owner's ping times out and after a re-ask times out -- never
    between a forward's timeout and its re-ask.
    """
    excluded: tuple[int, ...] = ()
    path = [client_id]
    kind, nxt = local_step(target_id, excluded)
    hops = 0
    while True:
        if kind == "done":
            if nxt == client_id:
                return LookupResult(nxt, hops)
            try:
                # The client is about to hand the owner out: check it
                # answers.  A stale pointer to a fresh crash is excluded
                # and the query re-asked, falling to the live successor.
                yield (nxt, "ping")
                return LookupResult(nxt, hops)
            except RpcTimeout:
                pass
            excluded += (nxt,)
            hops += 1
            if hops >= budget:
                raise LookupError_(
                    f"lookup of {target_id} from {client_id}: no live owner "
                    f"within {budget} hops",
                    hops,
                )
        elif hops >= budget:
            raise LookupError_(
                f"lookup of {target_id} from {client_id} exceeded {budget} hops",
                hops,
            )
        else:
            try:
                step = yield (nxt, "lookup_step", target_id, excluded)
            except RpcTimeout:
                # The hop is dead: re-ask the latest answerer without it.
                excluded += (nxt,)
                hops += 1
            else:
                hops += 1
                path.append(nxt)
                kind, nxt = step
                continue
        while True:  # re-ask the latest answerer, backing down past casualties
            current = path[-1]
            if current == client_id:
                kind, nxt = local_step(target_id, excluded)
                break
            try:
                kind, nxt = yield (current, "lookup_step", target_id, excluded)
                break
            except RpcTimeout:
                excluded += (current,)
                path.pop()
                hops += 1
                if hops >= budget:
                    raise LookupError_(
                        f"lookup of {target_id} from {client_id}: no live path "
                        f"within {budget} hops",
                        hops,
                    ) from None


class ChordNode:
    """One Chord peer.  All remote interaction goes through the transport.

    A node in a :class:`~repro.dht.chord.network.ChordNetwork` keeps its
    successor list and finger table in the network's ring store (a
    :class:`~repro.dht.chord.batch.RingSnapshot`), at ``slot``.  It
    holds each row as a Python list once read, and every write compares
    first, then updates the list and the store together.  So
    :attr:`successors` and :attr:`fingers` are replaced through their
    setters, never edited in place.  A node with no store (hand-wired in
    tests, or removed from its ring) keeps its rows in those lists only.
    """

    __slots__ = (
        "node_id", "m", "_transport", "_slist_size", "_store", "_slot",
        "_succs", "_fingers", "predecessor", "_next_finger",
        "_async_lookups", "_async_seq",
    )

    def __init__(
        self,
        node_id: int,
        m: int,
        transport: RpcTransport,
        successor_list_size: int = 8,
        store: RingSnapshot | None = None,
        slot: int = -1,
    ):
        if successor_list_size < 1:
            raise ValueError("successor_list_size must be >= 1")
        self.node_id = node_id
        self.m = m
        # Bind a node-scoped endpoint so every RPC this node issues
        # carries it as the source -- what lets partitions and grey
        # failures attribute deliveries (a raw transport is accepted
        # for hand-rolled setups and wrapped; an endpoint passes through).
        make_endpoint = getattr(transport, "endpoint", None)
        self._transport = (
            make_endpoint(node_id) if make_endpoint is not None else transport
        )
        self._slist_size = successor_list_size
        self._store = store
        self._slot = slot
        # The rows as lists: read from the store on first use.
        self._succs: list[int] | None = None if store is not None else [node_id]
        self._fingers: list[int | None] | None = None if store is not None else [None] * m
        self.predecessor: int | None = None
        self._next_finger = 0
        #: Pending async recursive lookups this node originated:
        #: token -> completion callback (see repro.dht.chord.async_lookup).
        #: Made by the first such lookup, so the sync transport never
        #: allocates it; None means nothing is pending.
        self._async_lookups: dict[int, Any] | None = None
        self._async_seq = 0

    # -- identity ---------------------------------------------------------

    @property
    def point(self) -> float:
        """The node's peer point ``l(p)`` on the unit circle."""
        return id_to_point(self.node_id, self.m)

    def __repr__(self) -> str:
        return f"ChordNode(id={self.node_id}, m={self.m})"

    # -- routing state (the rows) --------------------------------------------

    @property
    def successors(self) -> list[int]:
        """The successor list, nearest first (assign to change it)."""
        succs = self._succs
        return succs if succs is not None else self._load_succs()

    @successors.setter
    def successors(self, value) -> None:
        self._set_successors(list(value))

    @property
    def fingers(self) -> list[int | None]:
        """Finger ``f`` is the believed owner of ``id + 2^f`` (None = unset;
        assign to change it)."""
        fingers = self._fingers
        return fingers if fingers is not None else self._load_fingers()

    @fingers.setter
    def fingers(self, value) -> None:
        value = list(value)
        if value != self.fingers:
            self._fingers = value
            if self._store is not None:
                self._store.write_fingers(self._slot, value)

    def _load_succs(self) -> list[int]:
        store = self._store
        self._succs = succs = store.intern_ids(store.succs_at(self._slot))
        return succs

    def _load_fingers(self) -> list[int | None]:
        store = self._store
        self._fingers = fingers = store.intern_ids(store.fingers_at(self._slot))
        return fingers

    def _set_successors(self, new: list[int]) -> None:
        """The one successor-list writer: a no-op when nothing changes."""
        succs = self._succs
        if succs is None:
            succs = self._load_succs()
        if new != succs:
            self._succs = new
            if self._store is not None:
                self._store.write_succs(self._slot, new)

    def _reload_rows(self) -> None:
        """Forget the row lists: the store was rewritten under this node."""
        self._succs = self._fingers = None

    def _detach(self) -> None:
        """Keep the rows in this node's own lists from now on.

        Called as the node leaves its ring, before its slot is freed for
        a later join: the object can still run (an asynchronous hop in
        flight resumes on it), and it must answer from, and write to,
        its own last rows, never the next occupant's.
        """
        self._succs = self.successors
        self._fingers = self.fingers
        self._store = None
        self._slot = -1

    # -- RPC-exposed methods (invoked via the transport) --------------------

    def ping(self) -> bool:
        """Liveness probe."""
        return True

    def get_successor(self) -> int:
        """The node's current first live-believed successor."""
        succs = self._succs
        if succs is None:
            succs = self._load_succs()
        return succs[0] if succs else self.node_id

    def get_successor_list(self) -> list[int]:
        succs = self._succs
        return list(succs if succs is not None else self._load_succs())

    def get_predecessor(self) -> int | None:
        return self.predecessor

    def notify(self, candidate_id: int) -> None:
        """A node claiming to be our predecessor (Chord's ``notify``)."""
        if candidate_id == self.node_id:
            return
        if self.predecessor is None or in_open_open(
            candidate_id, self.predecessor, self.node_id
        ):
            self.predecessor = candidate_id

    def lookup_step(
        self, target_id: int, excluded: tuple[int, ...] = ()
    ) -> tuple[str, int]:
        """This node's :func:`route_step` for ``target_id`` (RPC-exposed)."""
        succs = self._succs
        if succs is None:
            succs = self._load_succs()
        fingers = self._fingers
        if fingers is None:
            fingers = self._load_fingers()
        return route_step(self.node_id, succs, fingers, target_id, excluded)

    def set_predecessor(self, candidate_id: int | None) -> None:
        """Used by gracefully departing neighbours to splice the ring."""
        self.predecessor = candidate_id

    def splice_out_successor(self, departing_id: int, replacements: list[int]) -> None:
        """A departing successor hands us its successor list."""
        merged = [s for s in self.successors if s != departing_id]
        for candidate in replacements:
            if candidate != departing_id and candidate not in merged:
                merged.append(candidate)
        self._set_successors(merged[: self._slist_size] or [self.node_id])

    # -- client-driven iterative lookup --------------------------------------

    def lookup(self, target_id: int, max_hops: int | None = None) -> LookupResult:
        """Iteratively resolve ``find_successor(target_id)`` from this node.

        :func:`iterative_lookup` driven inline: each exchange is one
        blocking RPC through this node's endpoint.  Raises
        :class:`LookupError_` when the hop budget (default
        :func:`hop_budget`) runs out, possible during churn before
        stabilization catches up.
        """
        budget = max_hops if max_hops is not None else hop_budget(self.m)
        return run_inline(
            self._transport,
            iterative_lookup(self.node_id, self.lookup_step, target_id, budget),
        )

    # -- recursive (forwarded) lookup -----------------------------------------

    def lookup_recursive(self, target_id: int, max_hops: int | None = None) -> LookupResult:
        """Resolve ``find_successor(target_id)`` by *recursive* routing.

        The query is forwarded hop by hop with one-way messages and the
        owner's answer returns directly to the querier: roughly half the
        messages and latency of the iterative mode, but a single lost
        hop loses the whole query (no client-side rerouting) -- the
        classical iterative-vs-recursive trade-off, measured in bench
        E16.  Raises :class:`LookupError_` on any mid-chain failure.
        """
        budget = max_hops if max_hops is not None else hop_budget(self.m)
        try:
            owner, hops = self.forward_lookup(target_id, 0, budget)
        except RpcTimeout as exc:
            raise LookupError_(str(exc)) from exc
        # The owner's single direct reply to the querier; a dead owner
        # (stale successor pointer) means the reply never arrives and the
        # querier times out -- it cannot reroute, unlike iterative mode.
        if owner != self.node_id:
            if not self._transport.is_registered(owner):
                # The querier waits out its reply timer in full before
                # giving up: charge the timeout interval and tick the
                # timeout counter exactly like a dead-target RPC, so a
                # failed lookup is never cheaper than a successful one.
                self._transport.metrics.counter("rpc.timeouts").increment()
                self._transport.charge_delay(self._transport.timeout)
                raise LookupError_(
                    f"recursive lookup of {target_id}: owner {owner} never replied"
                )
            self._transport.metrics.counter("messages").increment(1)
        return LookupResult(node_id=owner, hops=hops)

    def forward_lookup(self, target_id: int, hops: int, budget: int) -> tuple[int, int]:
        """Handle one forwarded hop of a recursive lookup (RPC-exposed)."""
        if hops > budget:
            raise LookupError_(
                f"recursive lookup of {target_id} exceeded {budget} hops"
            )
        kind, nxt = self.lookup_step(target_id)
        if kind == "done":
            return nxt, hops
        return self._transport.oneway(nxt, "forward_lookup", target_id, hops + 1, budget)

    # -- async recursive routing (message-level transport only) ---------------
    #
    # The event-scheduled twins of ``lookup_recursive``/``forward_lookup``:
    # each hop is a request/ack exchange (so a forwarder notices a dead
    # next hop and re-issues to the next live successor), and the owner
    # claims the query with one direct message to the querier.  Handlers
    # are plain RPC-exposed methods; the continuation logic lives in
    # :mod:`repro.dht.chord.async_lookup`.  Never invoked on the sync
    # transport (whose endpoints have no ``spawn``/``cast``).

    def async_forward_lookup(
        self, target_id: int, querier_id: int, token: int, hops: int, budget: int
    ) -> bool:
        """Accept one hop of an async recursive lookup (the reply acks it)."""
        from .async_lookup import forward_hop

        self._transport.spawn(
            forward_hop(self, target_id, querier_id, token, hops, budget)
        )
        return True

    def claim_async_lookup(
        self, target_id: int, querier_id: int, token: int, hops: int
    ) -> None:
        """We are the owner: send the single direct answer to the querier.

        Delivery of this message is the liveness proof ``lookup_recursive``
        gets from its direct reply -- a dead owner simply never claims,
        and the querier's deadline event fires instead.
        """
        self._transport.cast(
            querier_id, "complete_async_lookup", token, self.node_id, hops
        )

    def complete_async_lookup(self, token: int, owner_id: int, hops: int) -> None:
        """The owner's direct answer lands at the querier (RPC-exposed)."""
        pending = self._async_lookups
        settle = pending.pop(token, None) if pending is not None else None
        if settle is not None:
            settle(owner_id, hops)

    # -- maintenance protocol -------------------------------------------------

    def join(self, entry_id: int, attempts: int = 3) -> None:
        """Join the ring known to ``entry_id`` (Chord's ``join``).

        Retries a few times so transient packet loss cannot orphan the
        joining node; a node that still cannot reach the ring stays
        self-looped and is adopted later via ``notify``/``stabilize``.
        """
        succ: int | None = None
        for _ in range(attempts):
            try:
                result = self._transport.rpc(entry_id, "lookup", self.node_id)
                succ = result.node_id
                break
            except (RpcTimeout, LookupError_):
                continue
        if succ is None or succ == self.node_id:
            # The lookup can resolve to our own id if the entry node has
            # already learned about us; fall back to its successor view.
            try:
                succ = self._transport.rpc(entry_id, "get_successor")
            except RpcTimeout:
                return  # stay self-looped; stabilization will adopt us
        self.predecessor = None
        self._set_successors([succ])
        try:
            self._transport.rpc(succ, "notify", self.node_id)
        except RpcTimeout:
            pass

    def stabilize(self) -> None:
        """Chord's ``stabilize``: verify successor, adopt a closer one, notify."""
        succ = self._first_live_successor()
        if succ == self.node_id:
            # Self-loop (bootstrap node, or sole survivor).  If someone has
            # notified us, close the ring through them; otherwise idle.
            if self.predecessor is None or self.predecessor == self.node_id:
                return
            succ = self.predecessor
            self._set_successors([succ])
        try:
            x = self._transport.rpc(succ, "get_predecessor")
        except RpcTimeout:
            return
        if x is not None and x != self.node_id and in_open_open(x, self.node_id, succ):
            try:
                self._transport.rpc(x, "ping")
                succ = x
            except RpcTimeout:
                pass
        try:
            self._transport.rpc(succ, "notify", self.node_id)
            succ_list = self._transport.rpc(succ, "get_successor_list")
        except RpcTimeout:
            return
        merged = [succ] + [s for s in succ_list if s != self.node_id]
        deduped: list[int] = []
        for s in merged:
            if s not in deduped:
                deduped.append(s)
        self._set_successors(deduped[: self._slist_size])

    def _is_alive(self, node_id: int, attempts: int = 2) -> bool:
        """Ping with one retry so a single lost packet does not declare a
        live neighbour dead (false-death probability loss_rate^attempts)."""
        for _ in range(attempts):
            try:
                self._transport.rpc(node_id, "ping")
                return True
            except RpcTimeout:
                continue
        return False

    def _first_live_successor(self) -> int:
        """Pop dead entries off the successor list; never leaves it empty."""
        succs = self._succs
        if succs is None:
            succs = self._load_succs()
        dropped = 0
        while dropped < len(succs):
            candidate = succs[dropped]
            if candidate == self.node_id or self._is_alive(candidate):
                break
            dropped += 1
        if dropped or not succs:
            succs = succs[dropped:] or [self.node_id]
            self._set_successors(succs)
        return succs[0]

    def check_predecessor(self) -> None:
        """Forget a crashed predecessor so ``notify`` can install a new one."""
        if self.predecessor is None:
            return
        if not self._is_alive(self.predecessor):
            self.predecessor = None

    def offer_successor(self, candidate_id: int) -> None:
        """A node claiming to sit between us and our successor (RPC-exposed).

        The successor-side dual of :meth:`notify`: adopt the candidate
        as first successor when it lies strictly inside
        ``(self, successor)``.  Stabilize verifies the adoption next
        round (a liar just gets dropped as dead), so this only ever
        *tightens* the ring.
        """
        succ = self.get_successor()
        if candidate_id == self.node_id or candidate_id == succ:
            return
        if succ == self.node_id or in_open_open(candidate_id, self.node_id, succ):
            self._set_successors([candidate_id, *self.successors][: self._slist_size])

    def rectify(self, via: int | None = None) -> None:
        """Re-insert ourselves clockwise when the ring has bypassed us.

        A correlated regional kill can wipe a node's *entire* successor
        list along with its predecessor: the last survivor before the
        dead region fails over far past the first survivor after it, and
        the bypassed survivors -- alive, successor-correct, but with no
        inbound pointer -- would be walked back into the ring by pairwise
        stabilization only one node per round (``stabilize`` adopts
        ``succ.predecessor``, an O(region-size) heal).  The repair used
        here is a self-search: iteratively route toward our own id; the
        hop that answers "done" is the node whose successor interval
        swallowed us, and :meth:`offer_successor` re-closes the ring
        through us in O(log n) messages.  A no-op on a correct ring (the
        search ends at our true predecessor, which already points here).

        ``via`` roots the search at another node -- the ring-merge pass
        uses a main-ring entry so a node from a split-off island searches
        the ring it needs to re-enter rather than its own.
        """
        target = self.node_id
        budget = hop_budget(self.m)
        excluded: tuple[int, ...] = ()
        current = self.node_id if via is None else via
        hops = 0

        def ask(node_id: int) -> tuple[str, int]:
            if node_id == self.node_id:
                return self.lookup_step(target, excluded)
            return self._transport.rpc(node_id, "lookup_step", target, excluded)

        try:
            kind, nxt = ask(current)
        except RpcTimeout:
            return
        while kind != "done":
            if hops >= budget:
                return
            try:
                kind, result = self._transport.rpc(nxt, "lookup_step", target, excluded)
            except RpcTimeout:
                excluded = excluded + (nxt,)
                hops += 1
                try:
                    kind, nxt = ask(current)
                except RpcTimeout:
                    return
                continue
            hops += 1
            current, nxt = nxt, result
        if current == self.node_id:
            return
        try:
            self._transport.rpc(current, "offer_successor", self.node_id)
        except RpcTimeout:
            pass

    def repair_successor(self, via: int) -> None:
        """Adopt our true clockwise successor as found through ``via``.

        The outward half of ring merging: a node re-splicing into
        another ring keeps its own (island-internal) successor unless
        the search through the other ring finds a strictly closer one --
        :meth:`offer_successor`'s adopt-if-closer guard makes a stale or
        wrong answer harmless.  Used with :meth:`rectify`, which handles
        the inward half (the other ring adopting *us*).
        """
        target = (self.node_id + 1) % (1 << self.m)
        try:
            result = self._transport.rpc(via, "lookup", target)
        except (RpcTimeout, LookupError_):
            return
        self.offer_successor(result.node_id)

    def fix_next_finger(self) -> None:
        """Refresh one finger-table entry per call (Chord's ``fix_fingers``)."""
        i = self._next_finger
        self._next_finger = (self._next_finger + 1) % self.m
        target = (self.node_id + (1 << i)) % (1 << self.m)
        try:
            new: int | None = self.lookup(target).node_id
        except LookupError_:
            new = None
        fingers = self._fingers
        if fingers is None:
            fingers = self._load_fingers()
        if new != fingers[i]:  # the one single-finger write
            fingers[i] = new
            if self._store is not None:
                self._store.write_finger(self._slot, i, new)

    def fix_all_fingers(self) -> None:
        """Refresh the whole finger table (used at bootstrap)."""
        for _ in range(self.m):
            self.fix_next_finger()

    def leave_gracefully(self) -> None:
        """Splice ourselves out, handing state to both neighbours."""
        succ = self._first_live_successor()
        if self.predecessor is not None and self.predecessor != self.node_id:
            try:
                self._transport.rpc(
                    self.predecessor,
                    "splice_out_successor",
                    self.node_id,
                    [s for s in self.successors if s != self.node_id],
                )
            except RpcTimeout:
                pass
        if succ != self.node_id:
            try:
                self._transport.rpc(succ, "set_predecessor", self.predecessor)
            except RpcTimeout:
                pass
