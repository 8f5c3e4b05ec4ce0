"""Struct-of-arrays Chord substrate: a million-node ring with no node objects.

:class:`~repro.dht.chord.network.ChordNetwork` keeps its ring in a
:class:`~repro.dht.chord.batch.RingSnapshot` store too, beside a
membership table in draw/join order and a Python node object and
transport endpoint for each peer something has addressed (a
maintenance round addresses them all).  This module keeps *only* the
store: a sorted id array, a dense finger matrix, a padded successor
matrix, all slot-indexed with a free list -- wired vectorized in O(m)
array passes
(:meth:`RingSnapshot.wire_perfectly
<repro.dht.chord.batch.RingSnapshot.wire_perfectly>`) and spliced
incrementally under churn.  Per-node memory is exactly the array rows
(~8 * (m + slist + 4) bytes), which is what makes n=1e6 servable and
n=1e7 buildable on one machine (measured in ``benchmarks/bench_scale.py``).

Routing rides the existing lockstep engine
(:func:`~repro.dht.chord.batch.lockstep_resolve`): every lookup --
scalar or batched -- is a replayed trace over the arrays, charged with
the same cost model as the live transport's defaults (one-way latency
1.0, round-trip 2.0, dead-call timeout 8.0), so the adapter satisfies
the conformance contract's charge-accounting and bulk-vs-scalar
equivalence clauses by construction.  What this substrate deliberately
does *not* have is a transport: there are no per-peer RPC endpoints to
partition or corrupt, so fault-injection and adversary scenarios stay
on the object-per-node network (the conformance suite marks such
backends ``transported=False``).

Churn semantics mirror the live ring's observable behaviour:

- **join** splices the id into the sorted views and patches only the
  affected rows -- the new node's own successor/finger rows (oracle
  wiring), the successor lists of its O(slist) clockwise predecessors,
  and for each finger level the O(1) expected live nodes whose finger
  interval the new id now owns.  O(log n) row patches total.
- **crash** removes the id from membership *only*: every surviving row
  that referenced it keeps the stale pointer, and lookups route around
  it through the replay lanes' liveness checks, charging the same
  timeout-and-reroute costs a live ring would.
- **leave** (graceful) additionally repairs what the departing node's
  announcement would have: predecessors' successor lists and the finger
  cells that pointed at it are retargeted to its successor.
- **stabilize** rewires every live row to the oracle fixed point with
  the same vectorized routine -- the analogue of running pairwise
  stabilization to convergence, used between lookup retry attempts.
"""

from __future__ import annotations

import bisect
import random

from ..api import PeerRef
from ..idspace import draw_distinct_ids, draw_sorted_ids
from .batch import Lookups, RingSnapshot, resolve_lookups
from .idspace import point_to_target_id
from .network import ChordAdapterBase
from .node import LookupError_

__all__ = ["SoAChordNetwork", "SoAChordDHT"]

#: Deterministic charge constants, equal to the live transport defaults
#: (ConstantLatency(1.0) one-way, RpcTransport.timeout = 8.0) so traces
#: from this substrate are directly comparable with live-ring charges.
ONE_WAY_LATENCY = 1.0
RPC_LATENCY = 2.0 * ONE_WAY_LATENCY
TIMEOUT = 8.0


class _MembersView:
    """Mapping-shaped view of the live membership (there are no nodes).

    Satisfies the ``nodes`` surface substrate-agnostic code touches --
    iteration, ``len``, ``in``, ``.get``/``[]`` -- with the id itself
    standing in for the (nonexistent) node object.
    """

    __slots__ = ("_net",)

    def __init__(self, net):
        self._net = net

    def __iter__(self):
        return iter(self._net.sorted_ids())

    def __len__(self):
        return self._net.store.n

    def __contains__(self, node_id):
        return self._net.store.alive(node_id)

    def get(self, node_id, default=None):
        return node_id if self._net.store.alive(node_id) else default

    def __getitem__(self, node_id):
        if not self._net.store.alive(node_id):
            raise KeyError(node_id)
        return node_id


class SoAChordNetwork:
    """A Chord ring whose entire state is one struct-of-arrays snapshot."""

    def __init__(
        self,
        m: int = 32,
        rng: random.Random | None = None,
        successor_list_size: int = 8,
    ):
        if m < 3:
            raise ValueError("identifier space needs at least 3 bits")
        self.m = m
        self.rng = rng if rng is not None else random.Random()
        self._slist_size = successor_list_size
        self.churn_epoch = 0
        self.snapshot_builds = 0
        self.snapshot_patches = 0
        self.store: RingSnapshot | None = None
        self.nodes = _MembersView(self)
        self._sorted_cache: list[int] | None = None
        self._sorted_epoch = -1

    # -- bootstrap ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        n: int,
        m: int = 32,
        rng: random.Random | None = None,
        successor_list_size: int = 8,
    ) -> "SoAChordNetwork":
        if n < 1:
            raise ValueError("need at least one node")
        if n > (1 << m):
            raise ValueError(f"cannot place {n} nodes in a 2^{m} id space")
        net = cls(m=m, rng=rng, successor_list_size=successor_list_size)
        net.store = net._build_store(draw_sorted_ids(net.rng, m, n))
        net.snapshot_builds = 1
        return net

    def _build_store(self, sorted_ids) -> RingSnapshot:
        """Oracle-wire the whole ring as flat arrays (O(m) passes)."""
        width = max(1, min(self._slist_size, len(sorted_ids)))
        store = RingSnapshot(self.m, sorted_ids, width)
        store.wire_perfectly(self._slist_size)
        return store

    # -- oracle views ------------------------------------------------------

    def sorted_ids(self) -> list[int]:
        """Alive ids in clockwise order (memoized per epoch)."""
        if (
            self._sorted_cache is None
            or self._sorted_epoch != self.churn_epoch
            or len(self._sorted_cache) != self.store.n
        ):
            self._sorted_cache = self.store.sorted_ids_list()
            self._sorted_epoch = self.churn_epoch
        return self._sorted_cache

    def snapshot(self) -> RingSnapshot:
        """The lockstep engine routes directly on the live store."""
        return self.store

    def __len__(self) -> int:
        return self.store.n

    def ring_is_correct(self) -> bool:
        """Every successor row starts with the next alive id clockwise."""
        ids = self.sorted_ids()
        n = len(ids)
        store = self.store
        for i, node_id in enumerate(ids):
            succs = store.succs_at(store.slot(node_id))
            first = succs[0] if succs else node_id
            if first != ids[(i + 1) % n]:
                return False
        return True

    def array_bytes(self) -> int:
        """Bytes held by the substrate's arrays (exact)."""
        store = self.store
        arrays = [
            store.slot_ids_np, store.succ_first_np, store.finger_mat,
            store.succ_mat, store._ids_buf, store._order_buf,
        ]
        if store.pos_table is not None:
            arrays.append(store.pos_table)
        return int(sum(a.nbytes for a in arrays))

    # -- membership (incremental splices) ----------------------------------

    def _ids_in_interval(self, lo: int, hi: int) -> list[int]:
        """Live ids in the circular interval ``(lo, hi]`` of the id space."""
        if lo == hi:
            return []
        ids = self.sorted_ids()
        left = bisect.bisect_right(ids, lo)
        right = bisect.bisect_right(ids, hi)
        if lo < hi:
            return ids[left:right]
        return ids[left:] + ids[:right]  # wraps past zero

    def _oracle_succs(self, ids: list[int], i: int) -> tuple[int, ...]:
        n = len(ids)
        width = max(1, min(self._slist_size, n))
        return tuple(ids[(i + j + 1) % n] for j in range(width))

    def _oracle_fingers(self, ids: list[int], node_id: int) -> tuple[int, ...]:
        size = 1 << self.m
        n = len(ids)
        return tuple(
            ids[bisect.bisect_left(ids, (node_id + (1 << f)) % size) % n]
            for f in range(self.m)
        )

    def join_node(self, node_id: int | None = None) -> int:
        """Splice one node in with O(log n) row patches (oracle wiring)."""
        if node_id is None:
            node_id = draw_distinct_ids(self.rng, self.m, 1, self.nodes)[0]
        store = self.store
        if store.alive(node_id):
            raise ValueError(f"node {node_id} already in the ring")
        size = 1 << self.m
        before = store.patches
        old_ids = self.sorted_ids()
        ids = list(old_ids)
        i = bisect.bisect_left(ids, node_id)
        ids.insert(i, node_id)
        n = len(ids)
        store.apply_join(
            node_id, self._oracle_succs(ids, i), self._oracle_fingers(ids, node_id)
        )
        self.churn_epoch += 1
        self._sorted_cache = ids
        self._sorted_epoch = self.churn_epoch
        # Predecessors within successor-list range see the new id enter
        # their lists; recompute those rows against the new membership.
        for back in range(1, min(self._slist_size, n - 1) + 1):
            j = (i - back) % n
            store.write_succs(store.slot(ids[j]), self._oracle_succs(ids, j))
        # Finger level f of x points at the new node iff x's finger
        # target landed in the arc the new id took over from its
        # successor: (predecessor_of_new, new].  Shift by 2^f to get the
        # owning x interval; expected O(1) live ids per level.
        prev_id = ids[(i - 1) % n] if n > 1 else node_id
        if n > 1:
            for f in range(self.m):
                lo = (prev_id - (1 << f)) % size
                hi = (node_id - (1 << f)) % size
                for x in self._ids_in_interval(lo, hi):
                    if x != node_id:
                        store.write_finger(store.slot(x), f, node_id)
        self.snapshot_patches += store.patches - before
        return node_id

    def crash_node(self, node_id: int) -> None:
        """Fail-stop: membership splice-out only; stale rows stay."""
        store = self.store
        if not store.alive(node_id):
            raise KeyError(f"no node {node_id}")
        before = store.patches
        store.apply_remove(node_id)
        self.churn_epoch += 1
        self._sorted_cache = None
        self.snapshot_patches += store.patches - before

    def leave_node(self, node_id: int) -> None:
        """Graceful departure: splice out and repair what it announced."""
        store = self.store
        if not store.alive(node_id):
            raise KeyError(f"no node {node_id}")
        size = 1 << self.m
        before = store.patches
        old_ids = self.sorted_ids()
        i = bisect.bisect_left(old_ids, node_id)
        ids = old_ids[:i] + old_ids[i + 1 :]
        store.apply_remove(node_id)
        self.churn_epoch += 1
        self._sorted_cache = ids
        self._sorted_epoch = self.churn_epoch
        n = len(ids)
        if n == 0:
            self.snapshot_patches += store.patches - before
            return
        # The departed id's arc collapses onto its successor: repair the
        # predecessors' successor lists and every finger that named it.
        for back in range(1, min(self._slist_size, n) + 1):
            j = (i - back) % n
            store.write_succs(store.slot(ids[j]), self._oracle_succs(ids, j))
        succ_id = ids[i % n]
        prev_id = ids[(i - 1) % n]
        if n > 1:
            for f in range(self.m):
                lo = (prev_id - (1 << f)) % size
                hi = (node_id - (1 << f)) % size
                for x in self._ids_in_interval(lo, hi):
                    store.write_finger(store.slot(x), f, succ_id)
        self.snapshot_patches += store.patches - before

    # -- maintenance -------------------------------------------------------

    def stabilize_round(self, fingers_per_round: int = 1) -> None:
        """Rewire every live row to the oracle fixed point (vectorized).

        The analogue of running pairwise stabilization to convergence:
        after this, no row references a dead id.  O(n * m) array work,
        invoked only from lookup retry paths and scenario plumbing --
        steady-state churn goes through the incremental splices.
        """
        store = self.store
        if store.n == 0:
            return
        self.churn_epoch += 1
        before = store.patches
        store.wire_perfectly(self._slist_size)
        self.snapshot_patches += store.patches - before

    def run_stabilization(self, rounds: int, fingers_per_round: int = 1) -> None:
        for _ in range(rounds):
            self.stabilize_round(fingers_per_round=fingers_per_round)

    # -- adapter -----------------------------------------------------------

    def dht(
        self, entry_id: int | None = None, lookup_mode: str = "iterative"
    ) -> "SoAChordDHT":
        return SoAChordDHT(self, entry_id=entry_id, lookup_mode=lookup_mode)

    @classmethod
    def build_dht(
        cls,
        n: int,
        m: int = 32,
        rng: random.Random | None = None,
        lookup_mode: str = "iterative",
        **kwargs,
    ) -> "SoAChordDHT":
        return cls.build(n, m=m, rng=rng, **kwargs).dht(lookup_mode=lookup_mode)


class SoAChordDHT(ChordAdapterBase):
    """The ``h``/``next`` adapter over :class:`SoAChordNetwork`.

    Every lookup is a lockstep replay over the array store, scalar calls
    included, with the deterministic charge constants above -- so
    ``h_many`` equals a scalar ``h`` loop in peers and charges exactly
    (both are the same traces), and the retry discipline (stabilize
    between attempts, accumulate failed-attempt charges) mirrors
    :class:`~repro.dht.chord.network.ChordDHT`.  The batched lookups,
    the walk view and the replay key come from
    :class:`~repro.dht.chord.network.ChordAdapterBase`.
    """

    def __init__(
        self,
        network: SoAChordNetwork,
        entry_id: int | None = None,
        retries: int = 3,
        lookup_mode: str = "iterative",
    ):
        super().__init__(network, entry_id, lookup_mode)
        self._retries = max(1, retries)

    def _lookup_inputs(self, entry_id: int) -> tuple:
        """The lookup inputs a replay from ``entry_id`` reads: the entry,
        the lookup mode and the charge constants (see
        :meth:`ChordDHT._lookup_inputs
        <repro.dht.chord.network.ChordDHT._lookup_inputs>`)."""
        return (entry_id, self._lookup_mode, RPC_LATENCY, ONE_WAY_LATENCY, TIMEOUT)

    def h(self, x: float) -> PeerRef:
        """``h(x)``: one replayed lookup, retried over stabilization."""
        target = point_to_target_id(x, self._network.m)
        msgs = 0
        latency = 0.0
        owner: int | None = None
        for attempt in range(self._retries):
            trace = resolve_lookups(
                self._network.snapshot(),
                [target],
                *self._lookup_inputs(self._vantage_id()),
            ).traces()[0]
            msgs += trace.messages
            latency += trace.latency
            if trace.ok:
                owner = trace.owner
                break
            if attempt + 1 < self._retries:
                self._network.stabilize_round()
        self.cost.charge_h(msgs, latency)
        if owner is None:
            raise LookupError_(
                f"h({x!r}) failed after {self._retries} attempts"
            )
        return self._ref(owner)

    def lockstep_eligible(self) -> bool:
        return True  # charges are deterministic by construction

    def commit_lookups(self, lookups: Lookups, lo: int, hi: int, totals, walks=None) -> None:
        """Charge rows ``[lo, hi)`` of resolved lookups and their trials'
        replayed walks (each step as one live ``next``) on the meter,
        from the caller's ``totals``; see :meth:`ChordDHT.commit_lookups
        <repro.dht.chord.network.ChordDHT.commit_lookups>`.  There is no
        transport to trace, so the rows are not read."""
        count = hi - lo
        if not count:
            return
        messages, latency, _, _, steps = totals
        self.cost.charge_bulk(
            h_calls=count,
            next_calls=steps,
            messages=messages + 2 * steps,
            latency=latency + steps * RPC_LATENCY,
        )
        self.batch_stats.lockstep += count

    def next(self, peer: PeerRef) -> PeerRef:
        """``next(p)``: read the successor row (charged as one RPC)."""
        store = self._network.store
        slot = store.slot(peer.peer_id)
        if slot >= 0:
            succs = store.succs_at(slot)
            self.cost.charge_next(2, RPC_LATENCY)
            return self._ref(succs[0] if succs else peer.peer_id)
        # Dead peer: the live path charges a timed-out call, then
        # re-resolves the point via h.
        self.cost.charge_next(1, TIMEOUT)
        return self.h(peer.point)
