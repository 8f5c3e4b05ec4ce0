"""A Kademlia node: k-buckets, iterative lookups, successor resolution.

The node follows Maymounkov & Mazieres: the routing table is a sparse
set of *k-buckets* (bucket ``i`` holds up to ``k`` contacts at XOR
distance ``[2**i, 2**(i+1))``, least-recently-seen first), updated
opportunistically from every message observed and defended by the
classic LRU rule -- a full bucket pings its stalest entry through the
simulated transport (charged like any other traffic) and only evicts it
if the ping times out.  Lookups are *iterative* with configurable
``alpha`` concurrency: the querying client keeps a shortlist sorted by
XOR distance, queries the ``alpha`` closest unqueried candidates per
round, and terminates when the ``k`` closest nodes it knows of have all
responded.  (The sim transport is synchronous, so ``alpha`` shapes the
candidate frontier and fault tolerance rather than wall latency --
the same sequential-RPC simplification the Chord simulator documents.)

Successor resolution
--------------------

The paper's ``h(x)`` needs the peer *clockwise-closest* to a point,
which is not Kademlia's native metric: numeric adjacency and XOR
adjacency disagree whenever an interval crosses a high bit boundary
(``0x7ff -> 0x800`` is numerically adjacent but XOR-maximal).
:func:`successor_search` bridges the metrics with *aligned
block certification*: a converged ``find_node(q)`` returns the ``k``
XOR-closest live nodes to ``q``, i.e. a complete census of the XOR ball
of radius ``D`` = the ``k``-th best distance.  Inside the aligned block
``[q, limit)`` of :func:`~repro.dht.kademlia.idspace.aligned_limit`,
XOR distance from ``q`` *equals* numeric offset, so that census is also
a complete, ordered census of the id interval ``[q, limit)``: the
smallest in-interval result is the true successor, and no in-interval
result certifies the interval empty.  The search hops ``q`` from
boundary to boundary clockwise; each hop lands ``q`` on an ever
coarser-aligned base, so the certified stretch grows geometrically and
the expected probe count is barely above one lookup (the worst case --
an adversarially empty run of blocks -- is bounded by the ``O(m)``
blocks of the ring decomposition).  The search is written once, as a
coroutine: :meth:`KademliaNode.find_successor` drives it inline on the
synchronous transport, and
:func:`~repro.dht.kademlia.async_lookup.find_successor_async` spawns it
on the asynchronous one.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field

from ...sim.network import Call, RpcTimeout, RpcTransport, run_inline
from ..api import PeerUnreachableError
from .idspace import aligned_limit, bucket_index, id_to_point, xor_distance

__all__ = [
    "KademliaNode",
    "KademliaLookupError_",
    "LookupOutcome",
    "SuccessorResult",
    "lookup_budget",
    "successor_search",
]


def lookup_budget(m: int, k: int) -> int:
    """Per-lookup RPC budget: ``4 * m + 2 * k``.

    Convergence needs ``O(log n) <= m`` prefix-improving hops plus up to
    ``k`` confirmation queries of the final shortlist; the headroom
    absorbs reroutes around fresh crashes, mirroring Chord's
    :func:`~repro.dht.chord.node.hop_budget`.
    """
    return 4 * m + 2 * k


class KademliaLookupError_(PeerUnreachableError):
    """An iterative lookup could not converge (dead contacts mid-churn).

    Subclasses :class:`~repro.dht.api.PeerUnreachableError` so
    substrate-agnostic layers treat it as a retryable liveness failure
    without importing Kademlia, exactly like Chord's ``LookupError_``.
    """


@dataclass(frozen=True, slots=True)
class LookupOutcome:
    """What one converged iterative lookup established.

    ``ids`` are the up-to-``k`` XOR-closest nodes to the target the
    lookup *learned of*, sorted by distance; ``queried`` is the subset
    whose liveness the lookup confirmed first-hand (consumers needing a
    live peer ping the others before use).  ``complete`` is True when
    the confirmation frontier was exhausted without a single failure --
    the only state in which ``len(ids) < k`` may be read as "the whole
    network has fewer than ``k`` reachable nodes".
    """

    ids: tuple[int, ...]
    queried: frozenset
    rpcs: int
    failures: int
    complete: bool


@dataclass(frozen=True, slots=True)
class SuccessorResult:
    """Outcome of a successor resolution: the owner plus what came free.

    ``census`` is the certified run of *consecutive clockwise* live
    nodes starting at the owner -- every live id in the final probe's
    certified stretch, in ring order.  The resolution already paid to
    fetch these contacts, so a client walking the ring (the sampler's
    ``next`` loop) may consume them with per-hop liveness pings instead
    of a fresh lookup per hop, the XOR-overlay analogue of walking a
    Chord successor list.
    """

    node_id: int
    probes: int  # iterative lookups issued (1 in the common case)
    rpcs: int  # total find_node/ping RPCs across those lookups
    census: tuple[int, ...] = ()


@dataclass
class _Shortlist:
    """Candidate bookkeeping of one iterative lookup."""

    target: int
    known: set = field(default_factory=set)
    queried: set = field(default_factory=set)
    failed: set = field(default_factory=set)

    def add(self, ids) -> None:
        self.known.update(i for i in ids if i not in self.failed)

    def best(self, count: int):
        return heapq.nsmallest(
            count,
            (i for i in self.known if i not in self.failed),
            key=lambda i: self.target ^ i,
        )


class KademliaNode:
    """One Kademlia peer.  All remote interaction goes through the transport."""

    def __init__(
        self,
        node_id: int,
        m: int,
        transport: RpcTransport,
        k: int = 20,
        alpha: int = 3,
    ):
        if k < 1:
            raise ValueError("bucket size k must be >= 1")
        if alpha < 1:
            raise ValueError("lookup concurrency alpha must be >= 1")
        self.node_id = node_id
        self.m = m
        # Node-scoped endpoint: RPCs carry this node as the source, so
        # partitions and grey failures can attribute each delivery
        # (mirrors ChordNode; raw transports are wrapped, endpoints pass).
        make_endpoint = getattr(transport, "endpoint", None)
        self._transport = (
            make_endpoint(node_id) if make_endpoint is not None else transport
        )
        self.k = k
        self.alpha = alpha
        #: Sparse routing table: bucket index -> contact ids, least
        #: recently seen first (the LRU discipline of the paper).
        self.buckets: dict[int, list[int]] = {}
        #: Per-bucket replacement caches (Kademlia sec. 4.1): contacts
        #: observed while their bucket was full, promoted when a bucket
        #: member is seen to fail.  Avoids pinging the stale head on
        #: every observation -- the paper's own traffic optimization.
        self.replacements: dict[int, list[int]] = {}
        self._contact_set: set[int] = set()
        # Lazily-maintained sorted view of (contacts + self), backing the
        # ring-ordered find_clockwise answers; invalidated on membership
        # changes (not on LRU reorderings, which don't affect it).
        self._ring_cache: list[int] | None = None

    # -- identity ---------------------------------------------------------

    @property
    def point(self) -> float:
        """The node's peer point ``l(p)`` on the unit circle."""
        return id_to_point(self.node_id, self.m)

    def __repr__(self) -> str:
        return f"KademliaNode(id={self.node_id}, m={self.m}, k={self.k})"

    # -- routing-table maintenance ----------------------------------------

    def contacts(self) -> list[int]:
        """Every contact currently in the table (unordered)."""
        return list(self._contact_set)

    def knows(self, contact_id: int) -> bool:
        return contact_id in self._contact_set

    def observe(self, contact_id: int) -> None:
        """Fold an observed sender/contact into its bucket (LRU rule).

        A known contact moves to the tail (most recently seen); a new
        contact joins a non-full bucket directly.  A *full* bucket keeps
        its members (Kademlia's proven uptime-bias) and parks the
        newcomer in the replacement cache instead, to be promoted when a
        member is seen to fail -- the paper's sec. 4.1 optimization that
        liveness-checks stale entries lazily (:meth:`probe_stale`, or a
        lookup timing out on them) rather than pinging on every message.
        """
        if contact_id == self.node_id:
            return
        i = bucket_index(self.node_id, contact_id)
        bucket = self.buckets.setdefault(i, [])
        if contact_id in self._contact_set:
            bucket.remove(contact_id)
            bucket.append(contact_id)
            return
        if len(bucket) < self.k:
            bucket.append(contact_id)
            self._contact_set.add(contact_id)
            self._ring_cache = None
            return
        cache = self.replacements.setdefault(i, [])
        if contact_id in cache:
            cache.remove(contact_id)
        cache.append(contact_id)
        if len(cache) > self.k:
            cache.pop(0)

    def load_bucket(self, i: int, members: list[int]) -> None:
        """Overwrite bucket ``i`` wholesale (oracle wiring, free of RPCs)."""
        old = self.buckets.pop(i, None)
        if old:
            self._contact_set.difference_update(old)
        self.replacements.pop(i, None)
        self._ring_cache = None
        if members:
            self.buckets[i] = list(members)
            self._contact_set.update(members)

    def forget(self, contact_id: int) -> None:
        """Drop a contact observed dead, promoting from the replacement
        cache (most recently seen first) into the freed slot."""
        if contact_id == self.node_id or contact_id not in self._contact_set:
            return
        i = bucket_index(self.node_id, contact_id)
        bucket = self.buckets.get(i)
        if bucket is not None:
            try:
                bucket.remove(contact_id)
            except ValueError:
                pass
            cache = self.replacements.get(i)
            while cache and len(bucket) < self.k:
                promoted = cache.pop()
                if promoted not in self._contact_set and promoted != contact_id:
                    bucket.append(promoted)
                    self._contact_set.add(promoted)
            if not bucket:
                del self.buckets[i]
        self._contact_set.discard(contact_id)
        self._ring_cache = None

    def closest_known(self, target_id: int, count: int) -> list[int]:
        """Up to ``count`` table contacts closest to ``target_id`` in XOR."""
        return heapq.nsmallest(
            count, self._contact_set, key=lambda i: target_id ^ i
        )

    def probe_stale(self) -> int:
        """Ping each bucket's least-recently-seen contact, evicting the dead.

        The per-round maintenance analogue of Chord pinging its
        successor list and predecessor: one charged liveness probe per
        non-empty bucket, aimed at the stalest entry.  A survivor
        rotates to the tail, so successive rounds cycle through a
        bucket's members and every stale entry is eventually checked
        even without insert pressure; a casualty is evicted (promoting
        from the replacement cache).  Returns how many were evicted.
        """
        evicted = 0
        for i in sorted(self.buckets):
            bucket = self.buckets.get(i)
            if not bucket:
                continue
            stalest = bucket[0]
            try:
                self._transport.rpc(stalest, "ping")
            except RpcTimeout:
                self.forget(stalest)
                evicted += 1
                continue
            bucket.remove(stalest)
            bucket.append(stalest)
        return evicted

    def purge_dead(self, alive) -> int:
        """Scrub every table entry not in ``alive`` (oracle anti-entropy).

        After a correlated mass-kill, waiting for per-bucket lazy
        eviction to discover each casualty one timeout at a time is the
        slow path; the recovery machinery instead hands nodes the oracle
        membership once and lets them drop the dead wholesale, free of
        RPCs -- the bookkeeping a gossiped obituary feed would produce.
        Replacement caches are scrubbed *first* so :meth:`forget`'s
        promotions never resurrect a casualty.  Returns how many table
        contacts were dropped.
        """
        for i in list(self.replacements):
            cache = [c for c in self.replacements[i] if c in alive]
            if cache:
                self.replacements[i] = cache
            else:
                del self.replacements[i]
        dead = [c for c in self._contact_set if c not in alive]
        for contact_id in dead:
            self.forget(contact_id)
        return len(dead)

    # -- RPC-exposed methods (invoked via the transport) -------------------

    def ping(self) -> bool:
        """Liveness probe."""
        return True

    def find_node(self, target_id: int, sender_id: int | None = None) -> list[int]:
        """The up-to-``k`` closest contacts to ``target_id`` this node knows.

        Folds the sender into the routing table first (every message is
        an observation -- Kademlia's opportunistic maintenance).
        """
        if sender_id is not None:
            self.observe(sender_id)
        return self.closest_known(target_id, self.k)

    def find_clockwise(self, target_id: int, sender_id: int | None = None) -> list[int]:
        """The up-to-``k`` known ids closest *clockwise at-or-after* the target.

        The ring-oriented twin of :meth:`find_node`, answering from the
        same routing table with ring distance instead of XOR distance
        (the node itself included -- it may be the only peer).  This is
        what makes a walk hop one RPC: a node's bucket for the block
        containing its clockwise successor always holds that block's
        numeric minimum on converged tables (no ids lie between a node
        and its successor, so the successor *is* its block's minimum,
        and refresh keeps near blocks complete), hence the first entry
        of the reply from peer ``p`` for target ``p + 1`` is exactly
        ``next(p)``.
        """
        if sender_id is not None:
            self.observe(sender_id)
        ring = self._ring_view()
        i = bisect_left(ring, target_id)
        take = min(self.k, len(ring))
        return [ring[(i + j) % len(ring)] for j in range(take)]

    def _ring_view(self) -> list[int]:
        """Contacts plus self in sorted id order (cached between changes)."""
        if self._ring_cache is None:
            self._ring_cache = sorted([*self._contact_set, self.node_id])
        return self._ring_cache

    # -- client-driven iterative lookup ------------------------------------

    def iterative_find_node(
        self,
        target_id: int,
        excluded: frozenset = frozenset(),
        max_rpcs: int | None = None,
        thorough: bool = False,
    ) -> LookupOutcome:
        """Converge on the ``k`` XOR-closest known nodes to the target.

        Rounds of up to ``alpha`` queries to the closest unqueried
        candidates; responses merge their contacts into the shortlist,
        timeouts evict the casualty from our table and mark it failed.
        Terminates when the ``alpha`` best known candidates have all
        responded -- the nodes closest to the target, whose tables
        between them hold the target's whole neighbourhood -- or, while
        fewer than ``k`` nodes are known at all, when *every* known
        candidate has responded (so a small-network result is a full
        enumeration).  The outcome lists the top-``k`` known (confirmed
        and learned; consumers ping learned entries before use).
        Failures never raise here -- the ``complete`` flag carries the
        verdict and :func:`successor_search` escalates a truncated census
        to the retryable :class:`KademliaLookupError_`.

        ``thorough`` widens the termination frontier from the
        ``alpha`` best candidates to the full top-``k`` pool (the
        original paper's rule): the lookup only stops once every one of
        the ``k`` closest known nodes has responded.  Steady-state
        traffic keeps the cheap alpha frontier; recovery sweeps use the
        thorough rule because after a branch of the tree went dark the
        only route back into it can sit behind a candidate the greedy
        frontier would never query.
        """
        budget = max_rpcs if max_rpcs is not None else lookup_budget(self.m, self.k)
        sl = _Shortlist(target=target_id)
        sl.known.add(self.node_id)
        sl.queried.add(self.node_id)  # we answer for ourselves, free of RPCs
        sl.add(i for i in self.closest_known(target_id, self.k) if i not in excluded)
        rpcs = 0
        failures = 0
        while rpcs < budget:
            pending = self._pending(sl, thorough)
            if not pending:
                break
            for contact in pending[: self.alpha]:
                if rpcs >= budget:
                    break
                rpcs += 1
                try:
                    found = self._transport.rpc(
                        contact, "find_node", target_id, self.node_id
                    )
                except RpcTimeout:
                    failures += 1
                    sl.failed.add(contact)
                    self.forget(contact)
                    continue
                sl.queried.add(contact)
                self.observe(contact)
                sl.add(i for i in found if i not in excluded)
        return LookupOutcome(
            ids=tuple(sl.best(self.k)),
            queried=frozenset(sl.queried - sl.failed),
            rpcs=rpcs,
            failures=failures,
            complete=(failures == 0 and not self._pending(sl, thorough)),
        )

    def _pending(self, sl: "_Shortlist", thorough: bool = False) -> list[int]:
        """Unqueried members of the confirmation frontier, closest first."""
        pool = sl.best(self.k)
        if not thorough and len(pool) >= self.k:
            pool = pool[: self.alpha]
        return [i for i in pool if i not in sl.queried]

    # -- successor resolution (the paper's ``h`` primitive) ----------------

    def find_successor(
        self, target_id: int, max_probes: int | None = None
    ) -> SuccessorResult:
        """The first node id clockwise of ``target_id`` (inclusive, wrapping).

        :func:`successor_search` driven inline, each probe a blocking
        :meth:`iterative_find_node`.  Raises :class:`KademliaLookupError_`
        when a probe cannot converge or the probe budget runs out (both
        only plausible mid-churn).
        """
        return run_inline(
            self._transport,
            successor_search(self, target_id, max_probes, _find_node_inline),
        )

    # -- membership -------------------------------------------------------

    def join(self, entry_id: int) -> None:
        """Bootstrap through ``entry_id``: learn it, then look ourselves up.

        The self-lookup walks the query toward our own id, populating
        our buckets with the responders and -- since every queried node
        observes the sender -- announcing us along the whole path.  A
        node whose bootstrap fails outright stays isolated and is
        adopted later by refresh traffic, like a Chord joiner that lost
        its join RPCs.
        """
        self.observe(entry_id)
        try:
            self.iterative_find_node(self.node_id)
        except KademliaLookupError_:
            pass

    def refresh_all_buckets(self, rng) -> None:
        """Look up one random id in every bucket's range (paper sec. 2.3).

        The original join procedure ends by refreshing every bucket
        further away than the closest neighbour; this is that sweep.
        Routine maintenance (:meth:`refresh`) covers far buckets only in
        proportion to how often traffic crosses them, which is the right
        steady-state economy but can never repair a *branch* of the tree
        that emptied wholesale -- after a long partition, every contact
        a node held in some prefix range may be gone, and no lookup can
        route through a range nobody references.  One charged lookup per
        bucket range re-seeds each branch from whatever the current
        tables do reach.  The sweep uses thorough lookups (full top-``k``
        termination frontier): the lone surviving route into a dark
        branch is often a mid-distance contact the greedy alpha frontier
        would skip right over.
        """
        for i in range(self.m):
            target = self.node_id ^ rng.randrange(1 << i, 1 << (i + 1))
            try:
                self.iterative_find_node(target, thorough=True)
            except KademliaLookupError_:
                pass

    def refresh(self, rng) -> None:
        """One maintenance round: neighbourhood repair plus a far probe.

        Kademlia's stabilization analogue (scheduled periodically by the
        network, like Chord's ``stabilize``):

        - re-look up our own id, pulling the current XOR neighbourhood
          into the close buckets;
        - liveness-sweep the ``k`` closest contacts -- the entries
          ``find_clockwise`` and the successor census answer from --
          evicting the dead for replacement-cache promotions, the
          analogue of Chord pinging its successor list;
        - look up one uniformly random id, which lands in bucket ``i``
          with probability proportional to ``2**i``, weighting far-
          bucket refresh exactly by how often routing traverses it;
        - liveness-probe one stale far entry (:meth:`probe_stale`).

        All traffic runs through the transport and is charged.
        """
        for target in (self.node_id, rng.randrange(1 << self.m)):
            try:
                self.iterative_find_node(target)
            except KademliaLookupError_:
                pass
        for contact in self.closest_known(self.node_id, self.k):
            try:
                self._transport.rpc(contact, "ping")
            except RpcTimeout:
                self.forget(contact)
        self.probe_stale()


def _find_node_inline(node: KademliaNode, target_id: int, excluded: frozenset):
    """The synchronous plane's probe: a blocking :meth:`iterative_find_node`
    (a sub-coroutine that never suspends)."""
    return node.iterative_find_node(target_id, excluded=excluded)
    yield  # unreachable: makes this a generator


def successor_search(
    node: KademliaNode, target_id: int, max_probes: int | None, probe
):
    """Aligned-block successor resolution, as a request-yielding coroutine.

    Implements the certification of the module docstring: probe the XOR
    neighbourhood of the interval base, read the certified numeric
    stretch off the converged shortlist, and hop to the next aligned
    boundary while the stretch stays empty.  ``probe(node, base,
    excluded)`` is the probe as a sub-coroutine returning a
    :class:`LookupOutcome`: a blocking :meth:`KademliaNode.iterative_find_node`
    on the synchronous plane, an awaited
    :func:`~repro.dht.kademlia.async_lookup.find_node_async` future on
    the asynchronous one.  A learned (unconfirmed) owner is pinged with a
    yielded ``Call(owner, "ping")``; when it times out the owner is
    excluded and forgotten and the same base probed again.  Returns a
    :class:`SuccessorResult`; raises :class:`KademliaLookupError_` on a
    census truncated by failures or when the probe budget -- ``2 * m``,
    the worst-case block count of the ring decomposition, plus retry
    headroom -- runs out.
    """
    size = 1 << node.m
    budget = max_probes if max_probes is not None else 2 * node.m + 8
    cur = target_id % size
    probes = 0
    rpcs = 0
    excluded: set[int] = set()
    while probes < budget:
        out = yield from probe(node, cur, frozenset(excluded))
        probes += 1
        rpcs += out.rpcs
        if len(out.ids) < node.k:
            if not out.complete:
                raise KademliaLookupError_(
                    f"successor of {target_id}: census truncated by "
                    f"{out.failures} failures"
                )
            # Fewer than k nodes reachable in total: the census is the
            # whole network (every member was queried by the small-pool
            # termination rule); answer from it directly, with the full
            # wrap-around ring as the certified run.
            ring = sorted(out.ids)
            owner = _clockwise_min(out.ids, target_id)
            pos = ring.index(owner)
            return SuccessorResult(
                node_id=owner,
                probes=probes,
                rpcs=rpcs,
                census=tuple(ring[pos:] + ring[:pos]),
            )
        radius = max(xor_distance(cur, i) for i in out.ids)
        if radius == 0:  # k == 1 and the sole census member sits on cur
            return SuccessorResult(node_id=cur, probes=probes, rpcs=rpcs, census=(cur,))
        limit = aligned_limit(cur, radius, node.m)
        in_reach = sorted(i for i in out.ids if cur <= i < limit)
        if in_reach:
            # Certified complete and numerically ordered within the
            # aligned stretch: in_reach[0] is the successor and the whole
            # list is a consecutive clockwise run.
            owner = in_reach[0]
            if owner != node.node_id and owner not in out.queried:
                rpcs += 1
                try:
                    yield Call(owner, "ping")
                except RpcTimeout:
                    excluded.add(owner)
                    node.forget(owner)
                    continue
            return SuccessorResult(
                node_id=owner, probes=probes, rpcs=rpcs, census=tuple(in_reach)
            )
        cur = limit % size  # certified empty: hop to the next boundary
    raise KademliaLookupError_(
        f"successor of {target_id} not certified within {budget} probes"
    )


def _clockwise_min(ids, target_id: int) -> int:
    """The clockwise-first member of ``ids`` at or after ``target_id``."""
    at_or_after = [i for i in ids if i >= target_id]
    return min(at_or_after) if at_or_after else min(ids)
