"""The Chord overlay: membership, bootstrap, stabilization, and the DHT
adapter that exposes the paper's ``h``/``next`` interface with real
message-level cost accounting.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

import networkx as nx

from ...compat import load_numpy
from ...core.intervals import SortedCircle
from ...faults.retry import RetryPolicy
from ...sim.async_net import AsyncRpcTransport
from ...sim.kernel import Simulator
from ...sim.network import LatencyModel, RpcTimeout, RpcTransport
from ..api import CostMeter, PeerRef
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

__all__ = ["ChordNetwork", "ChordDHT", "SnapshotDelta"]


@dataclass(frozen=True, slots=True)
class SnapshotDelta:
    """One membership event in the network's snapshot delta log.

    ``kind`` is ``"add"`` (join) or ``"remove"`` (crash/leave).  The log
    records *which* ids changed membership, not their state: the drain in
    :meth:`ChordNetwork.snapshot` reads each survivor's current
    successor/finger state at patch time, which is what makes the patched
    snapshot bit-identical to a from-scratch rebuild regardless of how
    many maintenance rounds ran between drains.  Row-level changes to
    nodes that stayed members travel separately, via the dirty set fed by
    :attr:`ChordNode.on_change`.
    """

    kind: str
    node_id: int


class ChordNetwork:
    """A simulated Chord ring plus the machinery to keep it stabilized.

    Nodes live in an :class:`~repro.sim.network.RpcTransport`; a
    :class:`~repro.sim.kernel.Simulator` (optional) drives periodic
    maintenance for churn experiments, or callers invoke
    :meth:`stabilize_round` directly for lock-step experiments.
    """

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
        self.nodes: dict[int, ChordNode] = {}
        #: Monotone counter bumped by every membership or maintenance
        #: event (join/crash/leave/stabilize/rewire).  Epoch-keyed caches
        #: -- the memoized :meth:`sorted_ids` and the lockstep engine's
        #: :class:`~repro.dht.chord.batch.RingSnapshot` -- are rebuilt
        #: lazily whenever this moves.  Callers that mutate node state
        #: *directly* (bypassing the network API) must call
        #: :meth:`bump_epoch` themselves.
        self.churn_epoch = 0
        #: How many ring snapshots have been built *from scratch* -- with
        #: incremental maintenance this stays at 1 under churn driven
        #: through the network API; only direct node mutation
        #: (:meth:`bump_epoch`) or a delta backlog larger than the ring
        #: forces another full build.
        self.snapshot_builds = 0
        #: Row-level patch operations applied to the live snapshot in
        #: lieu of full rebuilds (observability for benches/reports).
        self.snapshot_patches = 0
        self._sorted_cache: list[int] | None = None
        self._sorted_epoch = -1
        self._snapshot: RingSnapshot | None = None
        #: Ordered membership-event log plus the row-dirty set, drained
        #: into the live snapshot by :meth:`snapshot`.
        self._deltas: list[SnapshotDelta] = []
        self._dirty: set[int] = set()

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
        ids = net._draw_distinct_ids(n)
        if perfect:
            for node_id in ids:
                net._register_node(
                    ChordNode(node_id, net.m, net.transport, net._slist_size)
                )
            net.rewire_perfectly()
        else:
            first = ids[0]
            net._register_node(
                ChordNode(first, net.m, net.transport, net._slist_size)
            )
            for node_id in ids[1:]:
                net.join_node(node_id)
                net.stabilize_round()
        return net

    def _draw_distinct_ids(self, count: int) -> list[int]:
        size = 1 << self.m
        if count > size:
            raise ValueError(f"cannot place {count} nodes in a 2^{self.m} id space")
        chosen: set[int] = set(self.nodes)
        fresh: list[int] = []
        while len(fresh) < count:
            candidate = self.rng.randrange(size)
            if candidate not in chosen:
                chosen.add(candidate)
                fresh.append(candidate)
        return fresh

    def bump_epoch(self) -> None:
        """Invalidate epoch-keyed caches after a *direct* state mutation.

        The conservative path for tests and tools that reach into node
        state outside the network API (and for :meth:`rewire_perfectly`,
        which rewrites every row anyway): the live snapshot is discarded
        and the next :meth:`snapshot` call rebuilds from scratch, since
        the delta log cannot know what changed.  Churn driven through the
        network API does *not* come here -- joins, crashes, leaves and
        stabilization record deltas via :meth:`_note_churn` and the
        snapshot is patched incrementally.
        """
        self.churn_epoch += 1
        self._snapshot = None
        self._deltas.clear()
        self._dirty.clear()

    def _note_churn(self, delta: SnapshotDelta | None = None) -> None:
        """Advance the epoch, logging a membership delta when one occurred.

        A delta backlog larger than the ring means patching would cost
        more than rebuilding (and the log would otherwise grow unbounded
        if no one consumes snapshots), so the log collapses to a full
        rebuild past that point.
        """
        self.churn_epoch += 1
        if self._snapshot is None:
            return  # nothing live to patch; next snapshot() rebuilds
        if delta is not None:
            self._deltas.append(delta)
        if len(self._deltas) > max(64, 2 * len(self.nodes)):
            self._snapshot = None
            self._deltas.clear()
            self._dirty.clear()

    def _mark_dirty(self, node_id: int) -> None:
        self._dirty.add(node_id)

    def _register_node(self, node: ChordNode) -> None:
        node.on_change = self._mark_dirty
        self.nodes[node.node_id] = node
        self.transport.register(node.node_id, node)

    def rewire_perfectly(self) -> None:
        """Set every node's state to the stabilized fixed point (oracle)."""
        ids = sorted(self.nodes)
        n = len(ids)
        size = 1 << self.m
        for i, node_id in enumerate(ids):
            node = self.nodes[node_id]
            node.successors = [ids[(i + k + 1) % n] for k in range(min(self._slist_size, n))]
            if not node.successors:
                node.successors = [node_id]
            node.predecessor = ids[(i - 1) % n] if n > 1 else None
            for f in range(self.m):
                target = (node_id + (1 << f)) % size
                node.fingers[f] = self._oracle_successor(ids, target)
        self.bump_epoch()

    @staticmethod
    def _oracle_successor(sorted_ids: list[int], target: int) -> int:
        i = bisect.bisect_left(sorted_ids, target)
        return sorted_ids[i % len(sorted_ids)]

    # -- membership ----------------------------------------------------------

    def join_node(self, node_id: int | None = None) -> ChordNode:
        """Add one node via the real join protocol (needs stabilization after)."""
        if node_id is None:
            node_id = self._draw_distinct_ids(1)[0]
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already in the ring")
        node = ChordNode(node_id, self.m, self.transport, self._slist_size)
        entry = self._random_alive_id()
        self._register_node(node)
        if entry is not None:
            node.join(entry)
        self._note_churn(SnapshotDelta("add", node_id))
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
        del self.nodes[node_id]
        self.transport.deregister(node_id)
        self._note_churn(SnapshotDelta("remove", node_id))

    def _random_alive_id(self) -> int | None:
        others = [i for i in self.nodes]
        if not others:
            return None
        return self.rng.choice(others)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- maintenance -----------------------------------------------------------

    def stabilize_round(self, fingers_per_round: int = 1) -> None:
        """One lock-step maintenance round over all nodes (random order)."""
        order = list(self.nodes)
        self.rng.shuffle(order)
        for node_id in order:
            node = self.nodes.get(node_id)
            if node is None:  # removed mid-round
                continue
            node.check_predecessor()
            node.stabilize()
            # Bypass repair: a node with no inbound pointer at all
            # (correlated kill took its predecessor and the ring failed
            # over past it) re-inserts itself by self-search -- rectify,
            # O(log n) messages, cold on a healthy ring.
            if len(self.nodes) > 1 and node.predecessor is None:
                node.rectify()
            for _ in range(fingers_per_round):
                node.fix_next_finger()
        if self.ring_merge:
            self._merge_rings()
        # Maintenance only rewrites rows of existing members; the nodes'
        # on_change hooks have already marked exactly which ones.
        self._note_churn()

    def _merge_rings(self) -> None:
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
        cycle and this pass does nothing.
        """
        if len(self.nodes) < 2:
            return
        succ = {}
        for node_id, node in self.nodes.items():
            s = node.get_successor()
            succ[node_id] = s if s in self.nodes else None
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
            node = self.nodes.get(node_id)
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

        Memoized on :attr:`churn_epoch`: static phases pay the O(n log n)
        sort once per epoch instead of on every call (the pre-memoization
        behaviour re-sorted on *each* lookup failover, bench row and
        oracle check).  The returned list is shared -- treat it as
        read-only.  A length guard catches direct ``nodes`` mutations
        that forgot :meth:`bump_epoch`.
        """
        if (
            self._sorted_cache is None
            or self._sorted_epoch != self.churn_epoch
            or len(self._sorted_cache) != len(self.nodes)
        ):
            self._sorted_cache = sorted(self.nodes)
            self._sorted_epoch = self.churn_epoch
        return self._sorted_cache

    def snapshot(self) -> RingSnapshot:
        """The live array view used by the lockstep lookup engine.

        Built from scratch once, then maintained *incrementally*: when
        :attr:`churn_epoch` has moved, the pending membership deltas are
        drained in order (joins spliced in, crashes/leaves spliced out)
        and every surviving node the maintenance hooks marked dirty gets
        its successor/finger rows rewritten from its current state --
        O(changed) row patches instead of an O(n * m) rebuild.  The
        patched snapshot is bit-identical to ``RingSnapshot.build(self)``
        (pinned by the Hypothesis equivalence property), so the lockstep
        engine's charge-identity guarantee is unaffected.  Only
        :meth:`bump_epoch` (direct node mutation, perfect rewire) or a
        delta backlog exceeding the ring size forces a fresh build.
        """
        snap = self._snapshot
        if snap is None:
            self._deltas.clear()
            self._dirty.clear()
            snap = self._snapshot = RingSnapshot.build(self)
            self.snapshot_builds += 1
            return snap
        if snap.epoch != self.churn_epoch:
            before = snap.patches
            for delta in self._deltas:
                if delta.kind == "remove":
                    snap.apply_remove(delta.node_id)
                    continue
                node = self.nodes.get(delta.node_id)
                if node is None:
                    continue  # joined and departed within one drain window
                snap.apply_join(delta.node_id, node.successors, node.fingers)
                self._dirty.discard(delta.node_id)
            self._deltas.clear()
            for node_id in self._dirty:
                node = self.nodes.get(node_id)
                if node is not None and node_id in snap.pos:
                    snap.apply_update(node_id, node.successors, node.fingers)
            self._dirty.clear()
            self.snapshot_patches += snap.patches - before
            snap.epoch = self.churn_epoch
        return snap

    def ring_is_correct(self) -> bool:
        """Every successor pointer equals the next alive id clockwise."""
        ids = self.sorted_ids()
        n = len(ids)
        for i, node_id in enumerate(ids):
            expected = ids[(i + 1) % n]
            if self.nodes[node_id].get_successor() != expected:
                return False
        return True

    def predecessors_correct(self) -> bool:
        """Every predecessor pointer equals the previous alive id."""
        ids = self.sorted_ids()
        n = len(ids)
        if n == 1:
            return True
        return all(
            self.nodes[ids[i]].predecessor == ids[(i - 1) % n] for i in range(n)
        )

    def to_circle(self) -> SortedCircle:
        """The analytic view: alive peer points on the unit circle."""
        return SortedCircle(id_to_point(i, self.m) for i in self.nodes)

    def overlay_graph(self, include_fingers: bool = True) -> nx.Graph:
        """The overlay as an undirected graph (successor + finger edges)."""
        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        for node_id, node in self.nodes.items():
            succ = node.get_successor()
            if succ in self.nodes and succ != node_id:
                g.add_edge(node_id, succ)
            if include_fingers:
                for finger in node.fingers:
                    if finger is not None and finger in self.nodes and finger != node_id:
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


# Optional acceleration for batched point -> target conversion; None
# when numpy is absent or REPRO_PURE_PYTHON is set (see repro.compat).
_np = load_numpy()


def _targets_for(points, m: int):
    """``point_to_target_id`` over a vector, stopping at the first invalid.

    Returns the converted prefix (possibly the whole vector); the caller
    replays the first unconverted point through the scalar path so an
    out-of-domain value raises exactly where a per-call loop would.
    """
    if _np is not None:
        arr = _np.asarray(points, dtype=_np.float64)
        ok = (arr > 0.0) & (arr <= 1.0)  # negated form would let NaN through
        if not ok.all():
            arr = arr[: int(_np.argmin(ok))]
        size = 1 << m
        # same float product and ceiling as math.ceil(x * size) % size
        return _np.ceil(arr * size).astype(_np.int64) % size
    targets: list[int] = []
    for x in points:
        try:
            targets.append(point_to_target_id(x, m))
        except ValueError:
            break
    return targets


class ChordDHT(EntryVantageMixin):
    """The paper's DHT interface over a live :class:`ChordNetwork`.

    ``h(x)`` runs one Chord lookup from the entry node -- iterative
    (client-driven, fault-tolerant) or recursive (forwarded, cheaper) --
    charging the *measured* message count and latency; ``next(p)`` is a
    single ``get_successor`` RPC.  This is the substrate on which
    Theorem 7's ``t_h = m_h = O(log n)`` premise is validated rather
    than assumed.
    """

    def __init__(
        self,
        network: ChordNetwork,
        entry_id: int | None = None,
        retries: int = 3,
        lookup_mode: str = "iterative",
        retry_policy: RetryPolicy | None = None,
        retry_rng: random.Random | None = None,
    ):
        if not network.nodes:
            raise ValueError("cannot adapt an empty network")
        if lookup_mode not in ("iterative", "recursive"):
            raise ValueError(f"unknown lookup_mode {lookup_mode!r}")
        self._network = network
        if entry_id is None:
            entry_id = min(network.nodes)
        if entry_id not in network.nodes:
            raise KeyError(f"entry node {entry_id} is not alive")
        self._entry_id = entry_id
        #: The lookup retry discipline.  The default reproduces the
        #: historical behaviour exactly: ``retries`` back-to-back
        #: attempts with no backoff.  A policy with backoff charges the
        #: waits through the transport (see RetryPolicy's determinism
        #: contract); jittered policies need ``retry_rng``.
        self._retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(attempts=max(1, retries), base_delay=0.0, factor=1.0)
        )
        self._retry_rng = retry_rng
        self._retries = self._retry_policy.attempts
        self._lookup_mode = lookup_mode
        self.cost = CostMeter()
        #: Where this adapter's batched lookups were resolved (lockstep
        #: engine vs live per-call) -- read by benches and the scenario
        #: runner's shard reports.
        self.batch_stats = BatchLookupStats()

    def _ref(self, node_id: int) -> PeerRef:
        return PeerRef(peer_id=node_id, point=id_to_point(node_id, self._network.m))

    @property
    def transport(self):
        """The underlying transport (tracer installation, introspection)."""
        return self._network.transport

    # entry_id / entry_is_alive / refresh_entry / _entry_node come from
    # EntryVantageMixin -- the failover discipline shared with KademliaDHT.

    def h(self, x: float) -> PeerRef:
        """``h(x)`` via an iterative lookup (cost: measured, ~O(log n))."""
        target = point_to_target_id(x, self._network.m)
        transport = self._network.transport
        policy = self._retry_policy
        before_msgs = transport.messages_sent
        before_time = transport.elapsed
        last_error: Exception | None = None
        result = None
        for failure in range(1, policy.attempts + 1):
            try:
                entry = self._entry_node()
                if self._lookup_mode == "recursive":
                    result = entry.lookup_recursive(target)
                else:
                    result = entry.lookup(target)
                break
            except LookupError_ as exc:
                last_error = exc
                if policy.should_retry(failure):
                    # Charge the backoff wait before the repair round so
                    # the retry attempt sees post-wait ring state; failed
                    # attempts' messages stay on the meter regardless.
                    transport.metrics.counter("rpc.retries").increment()
                    delay = policy.delay(failure, self._retry_rng)
                    if delay > 0:
                        transport.charge_delay(delay)
                self._network.stabilize_round()
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
            raise LookupError_(
                f"h({x!r}) failed after {policy.attempts} attempts: {last_error}"
            )
        return self._ref(result.node_id)

    # -- batched lookups (the lockstep engine) ---------------------------

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

    def warm_lockstep(self) -> bool:
        """Pre-build the ring snapshot, its walk view and its route table.

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

    def walk_view(self) -> WalkView | None:
        """The ring as ``next`` walks it, when replaying walks is exact.

        The batch engine replays Figure 1's clockwise walks from this
        view instead of one ``get_successor`` RPC per hop, and charges
        the replayed hops through :meth:`commit_lookups`.  None -- keep
        the per-call ``next`` walk -- unless lockstep replay is eligible
        (:meth:`lockstep_eligible`) and numpy is present.
        """
        if not self.lockstep_eligible():
            return None
        return self._network.snapshot().walk_view()

    def replay_key(self) -> tuple | None:
        """What ``resolve_many(..., commit=False)`` and :meth:`walk_view` read.

        The current :meth:`walk_view`, then the entry peer, the lookup
        mode and the replay costs
        (:func:`~repro.dht.chord.batch.replay_key`): equal keys mean an
        uncharged resolve would return the same rows.  None when
        :meth:`walk_view` is None.  The entry is read as it stands, so a
        caller reads the key after resolving (a resolve fails a dead
        entry over).
        """
        return replay_key(self.walk_view(), self._lookup_inputs(self._entry_id))

    def h_many(self, xs) -> list[PeerRef]:
        """``h`` over a whole vector of points via lockstep batch routing.

        Resolves all points in one pass over the epoch-cached
        :class:`~repro.dht.chord.batch.RingSnapshot` -- every in-flight
        lookup advanced one hop per round through array-indexed finger
        tables -- and charges the meter and transport counters the exact
        per-lookup amounts the equivalent ``[self.h(x) for x in xs]``
        loop would have, including routing around crashed fingers.  A
        lookup the engine cannot complete (the live path would raise and
        stabilize) cuts the batch over to live per-call execution from
        that index on, preserving the scalar loop's retry/stabilization
        sequence exactly.  When replay cannot be charge-identical (lossy
        transport, stochastic latency; see :meth:`lockstep_eligible`)
        the whole batch takes the per-call loop.

        ``ChordDHT`` still deliberately does *not* implement
        ``points_array``/``bulk_op_costs`` and therefore fails the
        ``BulkDHT`` check: a live overlay has no free flat point array,
        and batch samplers must keep metering real per-hop costs rather
        than synthetic unit costs.
        """
        return self._h_many(list(xs), tolerant=False)

    def resolve_many(self, xs, *, commit: bool = True):
        """Failure-tolerant :meth:`h_many`, or its uncharged resolution.

        With ``commit`` (the default): the same batched resolution and
        identical charges, but a point whose lookup fails terminally
        (after the live path's own retries and stabilization attempts)
        yields ``None`` instead of raising.  Mirrors a loop of ``h``
        calls with ``LookupError_`` caught per point.

        With ``commit=False``: charges nothing and touches no node state.
        Returns the snapshot's replay of every point's lookup as
        :class:`~repro.dht.chord.batch.Lookups`, for the caller to charge
        the rows it keeps through :meth:`commit_lookups`; a row with
        ``ok=False`` is a lookup the live path must re-execute (it would
        retry and stabilize).  None when replay is not eligible
        (:meth:`lockstep_eligible`).  A dead entry peer is failed over
        first, as the next live lookup would.
        """
        if commit:
            return self._h_many(list(xs), tolerant=True)
        if not self.lockstep_eligible():
            return None
        return self._lookups(list(xs))

    def _h_scalar(self, x: float, tolerant: bool) -> PeerRef | None:
        if not tolerant:
            return self.h(x)
        try:
            return self.h(x)
        except LookupError_:
            return None

    def _lookups(self, points: list) -> Lookups:
        """The lockstep replay of the longest valid prefix of ``points``."""
        network = self._network
        entry = self._entry_node()
        return resolve_lookups(
            network.snapshot(),
            _targets_for(points, network.m),
            *self._lookup_inputs(entry.node_id),
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
                # The engine predicts this lookup fails; the live path
                # replays the failed attempt's charges, stabilizes and
                # retries -- and may mutate the ring, so the loop
                # re-snapshots before resuming lockstep for the rest.
                self.batch_stats.delegated += 1
                out.append(self._h_scalar(points[i], tolerant))
                i += 1
            elif not n_ok:
                # points[i] lies outside the circle: h raises as a
                # scalar loop would.
                out.append(self._h_scalar(points[i], tolerant))
                i += 1
        return out

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

    def successor_of_index(self, i: int) -> PeerRef:
        """The live peer at clockwise ring position ``i % n`` (uncharged).

        Oracle-style access backed by the epoch-memoized sorted-id view,
        mirroring ``IdealDHT.successor_of_index`` for callers that
        index the ring directly (tests, analysis tooling).
        """
        ids = self._network.sorted_ids()
        return self._ref(ids[i % len(ids)])

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

    def any_peer(self) -> PeerRef:
        return self._ref(self._entry_node().node_id)
