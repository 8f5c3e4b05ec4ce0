"""The Chord overlay: membership, bootstrap, stabilization, and the DHT
adapter that exposes the paper's ``h``/``next`` interface with real
message-level cost accounting.

A ring's routing state is its ring store alone: a perfect build writes
the store and its draw order, and nothing per peer.  A peer's
:class:`~repro.dht.chord.node.ChordNode` is created from its store rows,
with its transport endpoint, once something first addresses it -- a
delivery, a maintenance round, ``nodes[...]``.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as _np

from ...core.intervals import SortedCircle
from ...faults.retry import LOOKUP_RETRY, RetryPolicy
from ...sim.async_net import AsyncRpcTransport
from ...sim.kernel import Simulator
from ...sim.network import LatencyModel, RpcTimeout, RpcTransport
from ..api import CostMeter, PeerRef
from ..idspace import draw_distinct_ids
from ..vantage import EntryVantageMixin
from .batch import (
    BatchLookupStats,
    Lookups,
    RingSnapshot,
    WalkView,
    build_route_table,
    replay_key,
    resolve_lookups,
)
from .idspace import id_to_point, point_to_target_id
from .node import ChordNode, LookupError_

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ChordNetwork", "ChordDHT"]


class _Members(Mapping):
    """A ring's live membership, id -> node, in draw/join order.

    ``in`` and ``len`` read the ring store's liveness and iteration the
    network's draw/join order, so none of them creates a node; ``[]``,
    ``get``, ``values()`` and ``items()`` create a member's node the
    first time they are asked for it.  Read-only: membership changes go
    through the network's ``join_node``/``crash_node``/``leave_node``.
    """

    __slots__ = ("_net",)

    def __init__(self, net: "ChordNetwork"):
        self._net = net

    def __contains__(self, node_id) -> bool:
        return self._net._store.alive(node_id)

    def __len__(self) -> int:
        return self._net._store.n

    def __iter__(self):
        return iter(self._net._member_order())

    def __getitem__(self, node_id) -> ChordNode:
        node = self._net._table.get(node_id)
        return node if node is not None else self._net._materialize(node_id)

    def get(self, node_id, default=None):
        return self[node_id] if node_id in self else default


class ChordNetwork:
    """A simulated Chord ring plus the machinery to keep it stabilized.

    Nodes live in an :class:`~repro.sim.network.RpcTransport`; a
    :class:`~repro.sim.kernel.Simulator` (optional) drives periodic
    maintenance for churn experiments, or callers invoke
    :meth:`stabilize_round` directly for lock-step experiments.

    The ring's routing state -- every node's successor list and finger
    table -- is one slot-indexed
    :class:`~repro.dht.chord.batch.RingSnapshot` store: joins and
    departures splice it, the nodes' protocol writes rewrite its rows,
    and :meth:`snapshot` hands it to the lockstep engine as it stands.
    :attr:`nodes` is the membership in draw/join order; a member's node
    object and endpoint are created when something first addresses it
    (the transport asks :attr:`nodes` for a target it has not seen), so
    the oracle checks below read the store and create nothing.
    """

    #: Ring stores built: the one store, made with the network and never
    #: rebuilt (read by benches and shard reports).
    snapshot_builds = 1

    def __init__(
        self,
        m: int = 32,
        rng: random.Random | None = None,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        successor_list_size: int = 8,
        sim: Simulator | None = None,
        ring_merge: bool = True,
        loss_rng: random.Random | None = None,
        async_transport: bool = False,
    ):
        if m < 3:
            raise ValueError("identifier space needs at least 3 bits")
        self.m = m
        self.rng = rng if rng is not None else random.Random()
        self.sim = sim if sim is not None else Simulator()
        if async_transport:
            # The message-level transport: requests/replies as scheduled
            # events on this network's simulator (see repro.sim.async_net).
            self.transport: RpcTransport = AsyncRpcTransport(
                self.sim,
                latency=latency,
                rng=self.rng,
                loss_rate=loss_rate,
                loss_rng=loss_rng,
            )
        else:
            self.transport = RpcTransport(
                latency=latency, rng=self.rng, loss_rate=loss_rate, loss_rng=loss_rng
            )
        self._slist_size = successor_list_size
        #: Run the network-level ring-merge pass (see :meth:`_merge_rings`)
        #: at the end of every stabilization round.  On by default -- it
        #: models the merge protocol deployments layer on Chord -- but
        #: can be disabled to study *pure* pairwise stabilization.
        self.ring_merge = ring_merge
        #: id -> node: only the created nodes while a perfect build's draw
        #: order is kept in :attr:`_drawn`, else every member in draw/join
        #: order, None until its node is created (see :meth:`_all_members`).
        self._table: dict[int, ChordNode | None] = {}
        #: A perfect build's ids in draw order, until the first join or
        #: departure.
        self._drawn: _np.ndarray | None = None
        self.nodes: Mapping[int, ChordNode] = _Members(self)
        self.transport.directory = self.nodes
        #: Sorted ids of the last perfect wiring (see :meth:`_materialize`),
        #: None while they are the store's own: copied at the first splice.
        self._wired_ids: _np.ndarray | None = _np.empty(0, dtype=_np.int64)
        #: Monotone counter bumped by every membership or maintenance
        #: event (join/crash/leave/stabilize/rewire); keys the memoized
        #: :meth:`sorted_ids`.
        self.churn_epoch = 0
        self._sorted_cache: list[int] | None = None
        self._sorted_epoch = -1
        self._store = RingSnapshot(m, (), successor_list_size)

    @property
    def snapshot_patches(self) -> int:
        """Writes to the ring store: splices, row writes and rewirings
        (observability for benches and shard reports)."""
        return self._store.patches

    # -- bootstrap ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        n: int,
        m: int = 32,
        rng: random.Random | None = None,
        perfect: bool = True,
        **kwargs,
    ) -> "ChordNetwork":
        """Create a ring of ``n`` nodes with distinct random identifiers.

        ``perfect=True`` wires successors, predecessors, successor lists
        and finger tables exactly (the post-stabilization fixed point), so
        experiments start from a correct overlay.  ``perfect=False``
        builds the ring by sequential joins, leaving repair to
        stabilization -- exercising the maintenance protocol itself.
        """
        net = cls(m=m, rng=rng, **kwargs)
        if n < 1:
            raise ValueError("need at least one node")
        ids = draw_distinct_ids(net.rng, net.m, n)
        if perfect:
            # The whole membership at once: the draw, kept as one array,
            # is the membership's order, slot i of the store holds the
            # i-th smallest id, and no node exists until something
            # addresses it.
            net._drawn = _np.array(ids, dtype=_np.int64)
            del ids  # free the draw's ints before the store allocates
            net._store = RingSnapshot(net.m, _np.sort(net._drawn), net._slist_size)
            net.rewire_perfectly()
        else:
            net._add_node(ids[0])
            for node_id in ids[1:]:
                net.join_node(node_id)
                net.stabilize_round()
        return net

    def _add_node(
        self, node_id: int, slot: int | None = None, predecessor: int | None = None
    ) -> ChordNode:
        """Create and register the node for ``node_id``, its rows at
        ``slot`` of the store (spliced in, self-looped, if None), its
        predecessor ``predecessor``."""
        if slot is None:
            self._keep_wired_ids()
            slot = self._store.apply_join(node_id, [node_id], [None] * self.m)
        node = ChordNode(
            node_id, self.m, self.transport, self._slist_size, self._store, slot
        )
        node.predecessor = predecessor
        self._table[node_id] = node
        self.transport.register(node_id, node)
        return node

    def _materialize(self, node_id: int) -> ChordNode:
        """Create a member's node, first asked for, from its store rows.

        Its predecessor is the one the last perfect wiring gave it.
        Until a node exists nothing can change its predecessor:
        ``notify``, ``set_predecessor`` and ``check_predecessor`` run on
        the node itself, through a delivery or its own maintenance turn,
        and both create it first.
        """
        slot = self._store.slot(node_id)
        if slot < 0:
            raise KeyError(node_id)
        return self._add_node(node_id, slot, self._wired_predecessor(node_id))

    def _wired_predecessor(self, node_id: int) -> int | None:
        """``node_id``'s predecessor in the last perfect wiring."""
        wired = self._store.ids_np if self._wired_ids is None else self._wired_ids
        if len(wired) < 2:
            return None
        return wired.item(int(wired.searchsorted(node_id)) - 1)

    def _keep_wired_ids(self) -> None:
        """Copy the last wiring's ids out of the store before it splices."""
        if self._wired_ids is None:
            self._wired_ids = self._store.ids_np.copy()

    def rewire_perfectly(self) -> None:
        """Set every node's state to the stabilized fixed point (oracle).

        Rewrites the store, whose sorted ids then give the nodes created
        later their predecessors (copied out before the next splice);
        only the nodes that exist reset their predecessor and row lists.
        """
        store = self._store
        store.wire_perfectly(self._slist_size)
        self._wired_ids = None  # the store's ids, until its next splice
        for node in self._table.values():
            if node is not None:
                node.predecessor = self._wired_predecessor(node.node_id)
                node._reload_rows()
        self.churn_epoch += 1

    # -- membership ----------------------------------------------------------

    def _member_order(self):
        """The live ids in draw/join order: the perfect build's draw, read
        into a list, or :attr:`_table` once it holds every member."""
        return self._table if self._drawn is None else self._drawn.tolist()

    def _all_members(self) -> dict[int, ChordNode | None]:
        """:attr:`_table` holding every member, in draw/join order.

        A perfect build keeps its draw as one int64 array and only the
        created nodes in the table.  The first join or departure moves
        the draw into the table, ``None`` for each node not created yet,
        so that each later change is an O(1) dict update.
        """
        if self._drawn is not None:
            created = self._table
            self._table = {i: created.get(i) for i in self._drawn.tolist()}
            self._drawn = None
        return self._table

    def join_node(self, node_id: int | None = None) -> ChordNode:
        """Add one node via the real join protocol (needs stabilization after)."""
        if node_id is None:
            node_id = draw_distinct_ids(self.rng, self.m, 1, self.nodes)[0]
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already in the ring")
        entry = self._random_alive_id()
        self._all_members()  # the new member goes after every drawn one
        node = self._add_node(node_id)
        if entry is not None:
            node.join(entry)
        self.churn_epoch += 1
        return node

    def crash_node(self, node_id: int) -> None:
        """Fail-stop: the node vanishes without telling anyone."""
        self._remove(node_id)

    def leave_node(self, node_id: int) -> None:
        """Graceful departure: the node splices itself out first."""
        self.nodes[node_id].leave_gracefully()
        self._remove(node_id)

    def _remove(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        node = self._all_members().pop(node_id)
        if node is not None:
            self.transport.deregister(node_id)
            # Its slot goes back to the free list for the next join; the
            # object keeps its own last rows.
            node._detach()
        self._keep_wired_ids()
        self._store.apply_remove(node_id)
        self.churn_epoch += 1

    def _random_alive_id(self) -> int | None:
        others = list(self.nodes)
        if not others:
            return None
        return self.rng.choice(others)

    def __len__(self) -> int:
        return self._store.n

    # -- maintenance -----------------------------------------------------------

    def stabilize_round(self, fingers_per_round: int = 1) -> None:
        """One lock-step maintenance round over all nodes (random order)."""
        nodes = self._table
        order = list(self.nodes)
        for node_id in order:  # the round visits every member
            if nodes.get(node_id) is None:
                self._materialize(node_id)
        self.rng.shuffle(order)
        for node_id in order:
            node = nodes.get(node_id)
            if node is None:  # removed mid-round
                continue
            node.check_predecessor()
            node.stabilize()
            # Bypass repair: a node with no inbound pointer at all
            # (correlated kill took its predecessor and the ring failed
            # over past it) re-inserts itself by self-search -- rectify,
            # O(log n) messages, cold on a healthy ring.
            if len(nodes) > 1 and node.predecessor is None:
                node.rectify()
            for _ in range(fingers_per_round):
                node.fix_next_finger()
        if self.ring_merge:
            self._merge_rings(nodes)
        self.churn_epoch += 1

    def _merge_rings(self, nodes: dict[int, ChordNode]) -> None:
        """Re-join nodes that churn has split off the main ring.

        Crash-heavy churn can orphan a node (its entire successor list
        died before repair, so it self-loops) or, worse, let several
        orphans adopt *each other* into a small island ring.  A
        partition leaves each side a self-consistent subring, and a
        correlated arc kill leaves long bypassed *tails*: chains of
        live, successor-correct nodes that feed into the main cycle
        while one node upstream skips over all of them.  No pointer in
        the main ring leads to any of these, so pairwise stabilization
        re-admits them at best one node per round -- the classic Chord
        liveness gap that deployed systems close with a separate
        ring-merge/anti-entropy protocol.  We model that protocol at
        the network level: find the cycles of the live
        successor-pointer graph, take the largest as the main ring, and
        *splice* every live node that is not a member of it -- minority
        cycles and bypassed tails alike -- via a self-search through a
        main-ring entry that offers the node to whoever bypasses it
        (:meth:`ChordNode.rectify`), plus a successor probe that adopts
        a strictly closer successor if the main ring holds one
        (:meth:`ChordNode.repair_successor`).  Splicing preserves the
        island's internal clockwise chain, so a partition-healed half
        re-enters in one pass instead of being flattened onto a single
        boundary node (the pathology of re-``join``-ing every member,
        which then interleaves back one node per round).  Nodes whose
        successor chain dead-ends at a crashed pointer are skipped:
        their state is not yet settled enough to splice, and
        ``stabilize`` repairs the dangling pointer first.  All searches
        run the real lookup protocol and are metered like any other
        traffic; on a healthy ring every node sits in the single main
        cycle and this pass does nothing.  ``nodes`` is the membership
        table with every node created.
        """
        if len(nodes) < 2:
            return
        succ = {}
        for node_id, node in nodes.items():
            s = node.get_successor()
            succ[node_id] = s if s in nodes else None
        # Walk the (partial) functional graph once, recording for every
        # node whether its chain reaches a cycle or dead-ends (None).
        visited: dict[int, int] = {}  # node -> walk it was first seen in
        cycles: list[set[int]] = []
        reaches_cycle: set[int] = set()
        pending: list[list[int]] = []  # paths awaiting terminal resolution
        for walk, start in enumerate(sorted(succ)):
            path = []
            cur = start
            while cur is not None and cur not in visited:
                visited[cur] = walk
                path.append(cur)
                cur = succ[cur]
            if cur is None:
                continue  # dead-ends; stabilize() repairs these first
            if visited[cur] == walk:
                cycles.append(set(path[path.index(cur):]))
                reaches_cycle.update(path)
            elif cur in reaches_cycle:
                reaches_cycle.update(path)
            else:
                pending.append(path)
        for path in pending:
            if succ[path[-1]] in reaches_cycle:
                reaches_cycle.update(path)
        if not cycles:
            return
        main = max(cycles, key=lambda c: (len(c), -min(c)))
        stranded = sorted(reaches_cycle - main)
        if not stranded:
            return
        entry_pool = sorted(main)
        for node_id in stranded:
            node = nodes.get(node_id)
            if node is None:
                continue
            entry = self.rng.choice(entry_pool)
            node.rectify(via=entry)
            node.repair_successor(via=entry)

    def run_stabilization(self, rounds: int, fingers_per_round: int = 1) -> None:
        """Run several lock-step maintenance rounds back to back."""
        for _ in range(rounds):
            self.stabilize_round(fingers_per_round=fingers_per_round)

    def start_periodic_maintenance(self, interval: float = 8.0):
        """Schedule stabilization on the simulator clock (churn experiments)."""
        return self.sim.every(interval, self.stabilize_round)

    # -- oracles for tests and analysis ----------------------------------------

    def sorted_ids(self) -> list[int]:
        """Alive identifiers in clockwise ring order (oracle view).

        Read from the ring store once per :attr:`churn_epoch`: static
        phases pay the O(n) read once instead of on every call (lookup
        failovers, bench rows and oracle checks all read it).  The
        returned list is shared -- treat it as read-only.
        """
        if self._sorted_cache is None or self._sorted_epoch != self.churn_epoch:
            self._sorted_cache = self._store.sorted_ids_list()
            self._sorted_epoch = self.churn_epoch
        return self._sorted_cache

    def snapshot(self) -> RingSnapshot:
        """The ring store, as the lockstep lookup engine routes on it.

        The same object from construction on: the nodes read and write
        their rows in it and membership changes splice it, so it always
        holds exactly the state the live path reads.
        """
        return self._store

    def ring_is_correct(self) -> bool:
        """Every successor pointer equals the next alive id clockwise
        (read from the store)."""
        store = self._store
        succ = store.succ_first_np[store.order_np]
        return bool((succ == _np.roll(store.ids_np, -1)).all())

    def predecessors_correct(self) -> bool:
        """Every predecessor pointer equals the previous alive id (a node
        not created yet holds its wired predecessor)."""
        ids = self.sorted_ids()
        n = len(ids)
        if n == 1:
            return True
        table = self._table
        for i, node_id in enumerate(ids):
            node = table.get(node_id)
            if node is None:
                predecessor = self._wired_predecessor(node_id)
            else:
                predecessor = node.predecessor
            if predecessor != ids[i - 1]:
                return False
        return True

    def to_circle(self) -> SortedCircle:
        """The analytic view: alive peer points on the unit circle."""
        return SortedCircle(id_to_point(i, self.m) for i in self.sorted_ids())

    def overlay_graph(self, include_fingers: bool = True) -> nx.Graph:
        """The overlay as an undirected graph (successor + finger edges).

        Read from the store's rows, in membership order, node by node:
        successor edge first, then finger edges.
        """
        ids = list(self.nodes)
        members = set(ids)
        store = self._store
        slots = store.order_np[store.ids_np.searchsorted(_np.array(ids, dtype=_np.int64))]
        succs = store.succ_first_np[slots].tolist()
        rows = store.finger_mat[slots].tolist() if include_fingers else [()] * len(ids)
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(ids)
        for node_id, succ, fingers in zip(ids, succs, rows):
            if succ in members and succ != node_id:
                g.add_edge(node_id, succ)
            for finger in fingers:  # an unset finger (-1) is never a member
                if finger in members and finger != node_id:
                    g.add_edge(node_id, finger)
        return g

    def dht(
        self,
        entry_id: int | None = None,
        lookup_mode: str = "iterative",
        retry_policy: RetryPolicy | None = None,
        retry_rng: random.Random | None = None,
    ) -> "ChordDHT":
        """An ``h``/``next`` adapter rooted at ``entry_id`` (default: any)."""
        return ChordDHT(
            self,
            entry_id=entry_id,
            lookup_mode=lookup_mode,
            retry_policy=retry_policy,
            retry_rng=retry_rng,
        )

    @classmethod
    def build_dht(
        cls,
        n: int,
        m: int = 20,
        rng: random.Random | None = None,
        lookup_mode: str = "iterative",
        **kwargs,
    ) -> "ChordDHT":
        """Build a perfectly-wired ring and return its DHT adapter.

        The one shared constructor for workloads, the serving layer and
        the CLI, so every consumer builds identically-configured rings.
        Validates that the identifier space can hold ``n`` distinct ids.
        """
        if n > (1 << m):
            raise ValueError(f"identifier space 2^{m} too small for n={n}")
        return cls.build(n, m=m, rng=rng, **kwargs).dht(lookup_mode=lookup_mode)


def _targets_for(points, m: int):
    """``point_to_target_id`` over a vector, stopping at the first invalid.

    Returns the converted prefix (possibly the whole vector); the caller
    replays the first unconverted point through the scalar path so an
    out-of-domain value raises exactly where a per-call loop would.
    """
    arr = _np.asarray(points, dtype=_np.float64)
    ok = (arr > 0.0) & (arr <= 1.0)  # negated form would let NaN through
    if not ok.all():
        arr = arr[: int(_np.argmin(ok))]
    size = 1 << m
    # same float product and ceiling as math.ceil(x * size) % size
    return _np.ceil(arr * size).astype(_np.int64) % size


class ChordDHT(EntryVantageMixin):
    """The paper's DHT interface over a live :class:`ChordNetwork`.

    ``h(x)`` runs one Chord lookup from the entry node -- iterative
    (client-driven, fault-tolerant) or recursive (forwarded, cheaper) --
    charging the *measured* message count and latency; ``next(p)`` is a
    single ``get_successor`` RPC.  This is the substrate on which
    Theorem 7's ``t_h = m_h = O(log n)`` premise is validated rather
    than assumed.

    ``h_many``/``resolve_many`` resolve a batch through the lockstep
    engine over the ring store (:mod:`repro.dht.chord.batch`), charge
    what they keep through ``commit_lookups``, and hand every lookup the
    engine predicts to fail to the scalar ``h``.  ``warm_lockstep``,
    ``walk_view`` and ``replay_key`` expose the store's walk view and
    route table.
    """

    def __init__(
        self,
        network: ChordNetwork,
        entry_id: int | None = None,
        lookup_mode: str = "iterative",
        retry_policy: RetryPolicy | None = None,
        retry_rng: random.Random | None = None,
    ):
        if lookup_mode not in ("iterative", "recursive"):
            raise ValueError(f"unknown lookup_mode {lookup_mode!r}")
        self._adopt(network, entry_id)
        self._lookup_mode = lookup_mode
        self.cost = CostMeter()
        #: Where this adapter's batched lookups were resolved (lockstep
        #: engine vs live per-call) -- read by benches and the scenario
        #: runner's shard reports.
        self.batch_stats = BatchLookupStats()
        #: The lookup retry discipline (default: three back-to-back
        #: attempts).  A policy with backoff charges the waits through
        #: the transport (see RetryPolicy's determinism contract);
        #: jittered policies need ``retry_rng``.
        self._retry_policy = retry_policy if retry_policy is not None else LOOKUP_RETRY
        self._retry_rng = retry_rng
        #: The last :meth:`replay_key` and the lookup inputs it holds.
        self._key: tuple | None = None
        self._key_inputs: tuple | None = None

    @property
    def transport(self):
        """The underlying transport (tracer installation, introspection)."""
        return self._network.transport

    # entry_id / entry_is_alive / refresh_entry / _vantage_id come from
    # EntryVantageMixin -- the failover discipline shared with Kademlia.

    def _lowest_id(self) -> int:
        # The store's first sorted id: no list of the membership is made.
        return int(self._network.snapshot().ids_np[0])

    def any_peer(self) -> PeerRef:
        return self._ref(self._vantage_id())

    def successor_of_index(self, i: int) -> PeerRef:
        """The live peer at clockwise ring position ``i % n`` (uncharged).

        Oracle-style access backed by the epoch-memoized sorted-id view,
        mirroring ``IdealDHT.successor_of_index`` for callers that
        index the ring directly (tests, analysis tooling).
        """
        ids = self._network.sorted_ids()
        return self._ref(ids[i % len(ids)])

    # -- batched lookups (the lockstep engine) ---------------------------

    def warm_lockstep(self) -> bool:
        """Pre-build the ring store's walk view and route table.

        Called before serving starts and after a shard's churn-recovery
        refresh, so a dispatch does not pay these builds on the request
        path.  The route table
        (:func:`~repro.dht.chord.batch.build_route_table`) is built only
        here: while the ring stays as warmed, every batch's lookups are
        read from it.  A dead entry gets no table: the next lookup fails
        over, and warming must not pick the new entry earlier than that.
        Returns whether the lockstep engine is engaged for this adapter.
        Free of charges and randomness.
        """
        if not self.lockstep_eligible():
            return False
        snapshot = self._network.snapshot()
        snapshot.walk_view()
        if self.entry_is_alive:
            build_route_table(snapshot, *self._lookup_inputs(self._entry_id))
        return True

    def walk_view(self) -> WalkView | None:
        """The ring as ``next`` walks it, when replaying walks is exact.

        The batch engine replays Figure 1's clockwise walks from this
        view instead of one ``get_successor`` RPC per hop, and charges
        the replayed hops through ``commit_lookups``.  None -- keep the
        per-call ``next`` walk -- unless lockstep replay is eligible
        (``lockstep_eligible``).  The store's view is read where it is
        cached, and rebuilt (:meth:`RingSnapshot.walk_view`) only after
        a write moved ``patches``.
        """
        if not self.lockstep_eligible():
            return None
        store = self._network._store
        view = store._walk
        if view is None or view.key != store.patches:
            view = store.walk_view()
        return view

    def replay_key(self) -> tuple | None:
        """What ``resolve_many(..., commit=False)`` and :meth:`walk_view` read.

        The current :meth:`walk_view`, then the entry peer, the lookup
        mode and the replay costs
        (:func:`~repro.dht.chord.batch.replay_key`): equal keys mean an
        uncharged resolve would return the same rows.  None when
        :meth:`walk_view` is None.  The entry is read as it stands, so a
        caller reads the key after resolving (a resolve fails a dead
        entry over).  Recomputed on every call; while the view is the
        same object and the inputs are equal, the previous key object
        is returned, so a caller holding it recognises it by identity.
        """
        view = self.walk_view()
        if view is None:
            return None
        inputs = self._lookup_inputs(self._entry_id)
        key = self._key
        if key is None or key[0] is not view or inputs != self._key_inputs:
            key = self._key = replay_key(view, inputs)
            self._key_inputs = inputs
        return key

    def h_many(self, xs) -> list[PeerRef]:
        """``h`` over a whole vector of points via lockstep batch routing.

        Resolves every point in one pass over the ring store and charges
        the exact amounts a ``[self.h(x) for x in xs]`` loop would,
        routing around crashed fingers included.  From the first lookup
        the engine predicts to fail, the batch cuts over to scalar ``h``
        calls (which retry and stabilize), and resumes lockstep after
        it; when replay cannot be charge-identical
        (``lockstep_eligible`` is false) the whole batch is a scalar
        loop.  Not a ``BulkDHT``: costs are metered per hop, not
        unit-priced.
        """
        return self._h_many(list(xs), tolerant=False)

    def resolve_many(self, xs, *, commit: bool = True):
        """Failure-tolerant :meth:`h_many`, or its uncharged resolution.

        With ``commit`` (the default): the same batched resolution and
        identical charges, but a point whose lookup fails terminally
        (after the scalar path's own retries and stabilization attempts)
        yields ``None`` instead of raising.  Mirrors a loop of ``h``
        calls with ``LookupError_`` caught per point.

        With ``commit=False``: charges nothing and touches no node state.
        Returns the store's replay of every point's lookup as
        :class:`~repro.dht.chord.batch.Lookups`, for the caller to charge
        the rows it keeps through ``commit_lookups``; a row with
        ``ok=False`` is a lookup the scalar path must re-execute (it
        would retry and stabilize).  None when replay is not eligible
        (``lockstep_eligible``).  A dead entry peer is failed over
        first, as the next scalar lookup would.
        """
        if commit:
            return self._h_many(list(xs), tolerant=True)
        if not self.lockstep_eligible():
            return None
        return self._lookups(xs)

    def _h_scalar(self, x: float, tolerant: bool) -> PeerRef | None:
        if not tolerant:
            return self.h(x)
        try:
            return self.h(x)
        except LookupError_:
            return None

    def _lookups(self, points) -> Lookups:
        """The lockstep replay of the longest valid prefix of ``points``
        (a sequence or a float array)."""
        network = self._network
        return resolve_lookups(
            network.snapshot(),
            _targets_for(points, network.m),
            *self._lookup_inputs(self._vantage_id()),
        )

    def _h_many(self, points: list, tolerant: bool) -> list:
        if not self.lockstep_eligible():
            self.batch_stats.percall += len(points)
            return [self._h_scalar(x, tolerant) for x in points]
        out: list = []
        i = 0
        while i < len(points):
            found = self._lookups(points[i:])
            n_ok = found.first_failure()
            if n_ok:
                ok = found[:n_ok]
                self.commit_lookups(found, 0, n_ok, (*ok.totals(), 0))
                out.extend(map(self._ref, ok.owners()))
                i += n_ok
            if n_ok < len(found):
                # The engine predicts this lookup fails; the scalar path
                # replays the failed attempt's charges, stabilizes and
                # retries -- and may mutate the ring, so the loop
                # re-resolves before resuming lockstep for the rest.
                self.batch_stats.delegated += 1
                out.append(self._h_scalar(points[i], tolerant))
                i += 1
            elif not n_ok:
                # points[i] lies outside the circle: h raises as a
                # scalar loop would.
                out.append(self._h_scalar(points[i], tolerant))
                i += 1
        return out


    def h(self, x: float) -> PeerRef:
        """``h(x)`` via an iterative lookup (cost: measured, ~O(log n))."""
        target = point_to_target_id(x, self._network.m)
        transport = self._network.transport
        before_msgs = transport.messages_sent
        before_time = transport.elapsed
        last_error: Exception | None = None
        result = None
        failure = 0
        spent = 0.0  # failed attempts' charges and waits, not repair
        while True:
            started = transport.elapsed
            try:
                entry = self._network.nodes[self._vantage_id()]
                if self._lookup_mode == "recursive":
                    result = entry.lookup_recursive(target)
                else:
                    result = entry.lookup(target)
                break
            except LookupError_ as exc:
                last_error = exc
                failure += 1
                spent += transport.elapsed - started
                wait = self._retry_policy.backoff(failure, spent, self._retry_rng)
                if wait is not None:
                    # Charge the backoff wait before the repair round so
                    # the retry attempt sees post-wait ring state; failed
                    # attempts' messages stay on the meter regardless.
                    transport.metrics.counter("rpc.retries").increment()
                    transport.charge_delay(wait)
                    spent += wait
                # Every failure, the last included, runs a repair round.
                self._network.stabilize_round()
                if wait is None:
                    break
        msgs = transport.messages_sent - before_msgs
        latency = transport.elapsed - before_time
        self.cost.charge_h(msgs, latency)
        if transport.tracer.active:
            transport.tracer.on_lookup(
                "chord",
                result.hops if result is not None else 0,
                msgs,
                latency,
                result is not None,
            )
        if result is None:
            raise LookupError_(f"h({x!r}) failed after {failure} attempts: {last_error}")
        return self._ref(result.node_id)

    def lockstep_eligible(self) -> bool:
        """Whether snapshot replay is charge-identical to live lookups.

        Requires a loss-free transport, a deterministic latency model
        (see :class:`~repro.sim.network.LatencyModel`), and no active
        fault state: under a stochastic ingredient, replaying lookups
        off-transport would consume the RNG stream differently from
        live execution, and under active faults (partitions, grey
        latency inflation, loss bursts) the snapshot would not see the
        blocked edges or inflated charges -- either way the equivalence
        guarantee (same peers, hops and charges as a scalar ``h`` loop)
        would be lost.  Ineligible adapters keep the per-call loop.
        An active adversary disqualifies replay for the same reason:
        lies are applied per delivery on the reply leg, and a snapshot
        of honest routing state cannot reproduce them.  An asynchronous
        transport is refused outright: its lookups are event-scheduled
        deliveries racing timeout events on the sim clock, which
        off-clock replay cannot be charge-identical to.
        """
        transport = self._network.transport
        return (
            transport.loss_rate == 0.0
            and not getattr(transport, "asynchronous", False)
            and not transport.faults.active
            and not transport.adversary.active
            and bool(getattr(transport.latency_model, "deterministic", False))
        )

    def _lookup_inputs(self, entry_id: int) -> tuple:
        """What a lookup replayed from ``entry_id`` reads besides the ring:
        ``(entry_id, mode, rpc_latency, oneway_latency, timeout)``, the
        argument tuple of :func:`~repro.dht.chord.batch.resolve_lookups`
        and :func:`~repro.dht.chord.batch.build_route_table` and the tail
        of :meth:`replay_key`."""
        network = self._network
        transport = network.transport
        # Deterministic models return a constant and consume no RNG, so
        # sampling here mirrors (not perturbs) the live per-call charges.
        one_way = transport.latency_model.sample(network.rng)
        return (entry_id, self._lookup_mode, one_way + one_way, one_way, transport.timeout)

    def commit_lookups(self, lookups: Lookups, lo: int, hi: int, totals, walks=None) -> None:
        """Charge resolved lookups, and their trials' walks, as live calls.

        Rows ``[lo, hi)`` of ``lookups`` are successful rows of
        ``resolve_many(..., commit=False)``; each is charged as the ``h``
        call it replays.  ``totals = (messages, latency, rpc_calls,
        rpc_timeouts, steps)`` are the caller's sums over those rows: the
        lookups' charge columns, then the walk steps.  ``walks = (view,
        starts, hops)``, parallel to ``lookups``, are the same trials'
        replayed walks: walk ``j`` took ``hops[j]`` steps clockwise from
        ring position ``starts[j]`` of ``view``, each charged as a
        successful ``next``: one RPC, two ``get_successor`` messages and
        one round trip.  Totals go to the transport and the meter in one
        update each; the rows themselves are read only while a tracer
        records, which gets, trial by trial, the lookup's span and then
        one ``rpc`` span per walk step, addressed to the peer asked and
        timed on the transport clock, as the live calls report them.
        Walk latencies are added as a product, so they equal the
        per-call sums exactly for integer delays (the default); a
        fractional delay can differ in the last bits.
        """
        count = hi - lo
        if not count:
            return
        messages, latency, calls, timeouts, steps = totals
        transport = self._network.transport
        rtt = 0.0
        if steps:
            # Deterministic models return a constant and consume no RNG.
            one_way = transport.latency_model.sample(self._network.rng)
            rtt = one_way + one_way
        walk_messages = 2 * steps
        if calls + steps:
            transport._count_call(calls + steps)
        if timeouts:
            transport._count_timeout(timeouts)
        if messages + walk_messages:
            transport._count_msgs(messages + walk_messages)
        if messages:
            # Lockstep traffic is all lookup routing; attribute it to
            # the mode's routing method so the per-method split keeps
            # summing to the aggregate counter under offline replay.
            transport.count_method_messages(
                "lookup_step" if self._lookup_mode == "iterative"
                else "forward_lookup",
                messages,
            )
        if walk_messages:
            transport.count_method_messages("get_successor", walk_messages)
        tracer = transport.tracer
        if tracer.active:
            self._trace_commit(tracer, lookups, lo, hi, walks, rtt)
        latency += steps * rtt
        transport.elapsed += latency
        self.cost.charge_bulk(
            h_calls=count,
            next_calls=steps,
            messages=messages + walk_messages,
            latency=latency,
        )
        self.batch_stats.lockstep += count

    def _trace_commit(self, tracer, lookups: Lookups, lo: int, hi: int, walks, rtt: float) -> None:
        """The tracer events of :meth:`commit_lookups`, in draw order."""
        t = self._network.transport.elapsed
        if walks is not None:
            view, starts, steps = walks
            starts, steps = starts[lo:hi].tolist(), steps[lo:hi].tolist()
            ids = view.ids
            n = len(ids)
        for j, trace in enumerate(lookups[lo:hi].traces()):
            tracer.on_lookup("chord", trace.hops, trace.messages, trace.latency, True)
            if walks is None:
                continue
            t += trace.latency
            for q in range(starts[j], starts[j] + steps[j]):
                tracer.on_rpc(None, int(ids[q % n]), "get_successor", "rpc", t, t + rtt, "ok")
                t += rtt

    def next(self, peer: PeerRef) -> PeerRef:
        """``next(p)`` via one ``get_successor`` RPC (cost: O(1))."""
        transport = self._network.transport
        before_msgs = transport.messages_sent
        before_time = transport.elapsed
        try:
            succ = transport.rpc(peer.peer_id, "get_successor")
        except RpcTimeout:
            # The peer crashed under us; resolve its point again via h.
            self.cost.charge_next(
                transport.messages_sent - before_msgs,
                transport.elapsed - before_time,
            )
            return self.h(peer.point)
        self.cost.charge_next(
            transport.messages_sent - before_msgs,
            transport.elapsed - before_time,
        )
        return self._ref(succ)
