"""Lockstep batch lookup engine over a struct-of-arrays ring snapshot.

The per-call Chord lookup pays Python RPC dispatch, metrics-counter and
finger-scan overhead *per hop*.  For a batch of ``k`` lookups on a ring
whose state is not changing, that work is pure interpretation overhead:
every routing step is a deterministic function of frozen node state.
This module resolves whole batches against a :class:`RingSnapshot` -- a
flat struct-of-arrays view of the ring (sorted identifiers, a dense
finger matrix, a padded successor-list matrix, all indexed by stable
free-list *slots*) -- advancing all in-flight lookups **in lockstep**,
one hop per round, with the routing decisions of a round computed as a
handful of vectorized array operations instead of ``k`` RPC round trips.

Struct-of-arrays layout
-----------------------

Rows live at *slots*: stable indices handed out by a free list, so a
membership change never moves another node's row.  Two thin sorted
views -- the live id array and a parallel ``order`` array mapping each
sorted position to its slot -- make id -> slot resolution a binary
search (or one gather through the dense ``pos_table`` when the id space
is small enough to materialize it).  The payoff is *incremental
maintenance*: a join or crash splices one id in or out of the sorted
views (an O(n) 1-D memmove of 8-byte words) and writes O(log n) row
cells, instead of rebuilding every array from the node objects.  The
:class:`~repro.dht.chord.network.ChordNetwork` drives this through an
explicit delta log (see its ``snapshot`` method); the
struct-of-arrays substrates (:mod:`repro.dht.chord.soa`) use the same
class *as* their primary state, with no per-node objects at all
(``compact`` construction: no Python list mirrors, id -> slot resolved
through the arrays).

Correctness contract
--------------------

The engine is a *charge-identical replay*, not an approximation: for
every target it must produce the same owner, the same hop count, and
the same message/latency charges that :meth:`ChordNode.lookup` (or
``lookup_recursive``) would have produced against the same frozen node
state.  Four design rules make that exact:

- **Delta-synced snapshots.**  :class:`~repro.dht.chord.network.ChordNetwork`
  bumps a ``churn_epoch`` counter on every membership or maintenance
  event (join, crash, leave, stabilize, rewire) and records what changed
  in a ``SnapshotDelta`` log.  A snapshot records the epoch it is synced
  to; the moment the counter moves, the network re-syncs it by applying
  the pending deltas (splice joins/crashes, patch dirty rows) before the
  engine routes on it -- the patched arrays are bit-identical to a
  from-scratch rebuild (a pinned invariant), so the engine never routes
  on state the live path would no longer see.  Direct node mutation
  outside the network API (``bump_epoch``) still forces a full rebuild.
- **Cost determinism.**  Offline replay is only charge-identical when
  the transport's per-call costs are deterministic (a ``deterministic``
  latency model and ``loss_rate == 0``); the adapter checks this before
  engaging and otherwise keeps the per-call loop.
- **Exact fallback.**  The vectorized lane handles the hot path -- no
  crashed references, no exclusion lists.  A lookup that touches a dead
  node (a stale finger/successor pointing at a crashed peer) is replayed
  from scratch by :func:`_sim_iterative`, a line-by-line Python
  transcription of the client-driven loop *including* its
  excluded-node rerouting, still against the snapshot.  A lookup that
  fails terminally (hop budget exhausted, dead recursive hop) is
  reported with ``ok=False`` and the adapter re-executes it -- and
  everything after it -- through the live per-call path, which replays
  the failed attempt's charges, triggers the same stabilization retry,
  and leaves the network in the same state as a scalar call sequence.
- **Route once per ring state.**  When every finger and successor entry
  of every live row names a live id, each routing test compares the
  target against live ids with half-open ``(a, b]`` bounds, so every
  target in one owner arc ``(ids[j-1], ids[j]]`` takes the same route:
  same owner, hops and charges.  :func:`build_route_table` certifies
  the rows and stores one lookup per arc on the snapshot as a
  :class:`RouteTable`; while its key holds, :func:`lockstep_resolve`
  answers any batch with a ``searchsorted`` and a gather.  Only the
  adapters' ``warm_lockstep`` builds it, so a ring that changes between
  batches simply runs the lanes above.

Because successful lookups never mutate node state, evaluating a batch
against one frozen snapshot is order-equivalent to evaluating it
sequentially; the first terminal failure is the first point at which
the live path would have mutated the network (stabilization), which is
exactly where the adapter cuts over.

Replay charges nothing by itself: :func:`resolve_lookups` returns a
batch's outcomes as :class:`Lookups` columns, and the adapters charge
only the rows their caller commits (``commit_lookups``).  ``h_many``
commits every successful row; the batch sampler resolves a block of
queued trial points once per ring state and commits it slice by slice
across its calls, each up to the call's last needed success, for as
long as :func:`replay_key` holds (the sampler keeps running totals of
the block's charge columns and hands a slice's totals to
``commit_lookups``).  :func:`lockstep_resolve` gives the same rows as
:class:`LookupTrace` records.
"""

from __future__ import annotations

import bisect as _bisect
from dataclasses import dataclass

from ...compat import load_numpy
from ...core.intervals import ring_gaps
from ..api import NUMPY_MIN_BATCH, PeerRef
from .idspace import in_open_closed, in_open_open
from .node import hop_budget

__all__ = [
    "BatchLookupStats",
    "LookupTrace",
    "Lookups",
    "RingSnapshot",
    "RouteTable",
    "WalkView",
    "build_route_table",
    "lockstep_resolve",
    "replay_key",
    "resolve_lookups",
]

# Optional acceleration; the pure-Python lane is always available and
# REPRO_PURE_PYTHON forces it (see repro.compat).
_np = load_numpy()

#: Rows per pass when certifying a snapshot and building its route
#: table, so the transient arrays stay bounded at any ring size.
_ROUTE_CHUNK = 8192


@dataclass(frozen=True, slots=True)
class LookupTrace:
    """Outcome and exact cost accounting of one replayed lookup.

    ``messages``/``latency``/``rpc_calls``/``rpc_timeouts`` are the
    amounts the live transport would have charged; ``ok=False`` marks a
    terminal failure (the live path would raise ``LookupError_``), whose
    charges the caller must *discard* and re-execute live.
    """

    owner: int
    hops: int
    messages: int
    latency: float
    rpc_calls: int
    rpc_timeouts: int
    ok: bool


class Lookups:
    """A batch of replayed lookups as columns, charged by no one yet.

    Row ``j`` holds what :class:`LookupTrace` ``j`` would, one column per
    field: the owner id (``-1`` on failure), hops, the messages, latency,
    RPCs and timeouts the live transport would charge, and ``ok``.
    Columns are numpy arrays on the numpy lane and lists in the
    pure-Python lane; slicing selects rows.  The adapters resolve a batch
    into one of these and charge only the rows their caller commits.
    """

    _COLUMNS = ("owner", "hops", "messages", "latency", "rpc_calls", "rpc_timeouts", "ok")
    _DTYPES = ("int64", "int64", "int64", "float64", "int64", "int64", "bool")

    __slots__ = _COLUMNS

    def __init__(self, owner, hops, messages, latency, rpc_calls, rpc_timeouts, ok):
        self.owner = owner
        self.hops = hops
        self.messages = messages
        self.latency = latency
        self.rpc_calls = rpc_calls
        self.rpc_timeouts = rpc_timeouts
        self.ok = ok

    @classmethod
    def from_traces(cls, traces) -> "Lookups":
        columns = [[getattr(t, name) for t in traces] for name in cls._COLUMNS]
        if _np is not None:
            columns = [_np.array(c, dtype=d) for c, d in zip(columns, cls._DTYPES)]
        return cls(*columns)

    def __len__(self) -> int:
        return len(self.ok)

    def __getitem__(self, rows: slice) -> "Lookups":
        return Lookups(*[getattr(self, name)[rows] for name in self._COLUMNS])

    def _replace(self, j: int, trace: LookupTrace) -> None:
        for name in self._COLUMNS:
            getattr(self, name)[j] = getattr(trace, name)

    def traces(self) -> list[LookupTrace]:
        """The rows as :class:`LookupTrace` records."""
        columns = [getattr(self, name) for name in self._COLUMNS]
        if _np is not None:
            columns = [c.tolist() for c in columns]
        return [LookupTrace(*row) for row in zip(*columns)]

    def owners(self) -> list[int]:
        """The owner column as plain ints."""
        return list(self.owner) if _np is None else self.owner.tolist()

    def first_failure(self) -> int:
        """Index of the first row with ``ok=False`` (``len`` if none)."""
        if _np is None:
            return next((j for j, ok in enumerate(self.ok) if not ok), len(self.ok))
        bad = (~self.ok).nonzero()[0]
        return int(bad[0]) if bad.size else len(self.ok)

    def totals(self) -> tuple[int, float, int, int]:
        """``(messages, latency, rpc_calls, rpc_timeouts)`` over all rows."""
        if _np is None:
            return (
                sum(self.messages),
                sum(self.latency, 0.0),
                sum(self.rpc_calls),
                sum(self.rpc_timeouts),
            )
        return (
            int(self.messages.sum()),
            float(self.latency.sum()),
            int(self.rpc_calls.sum()),
            int(self.rpc_timeouts.sum()),
        )


@dataclass(slots=True)
class BatchLookupStats:
    """Where an adapter's batched lookups were resolved (observability).

    ``lockstep`` counts lookups answered by the snapshot engine,
    ``delegated`` those the engine flagged as failing and handed back to
    the live per-call path, and ``percall`` points that never reached
    the engine (batch too small, or a non-deterministic cost model).
    """

    lockstep: int = 0
    delegated: int = 0
    percall: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "lockstep": self.lockstep,
            "delegated": self.delegated,
            "percall": self.percall,
        }


class WalkView:
    """The ring as Figure 1's clockwise walk sees it, for one snapshot state.

    Four arrays, parallel over sorted-id positions:

    - ``ids``: the live ids in clockwise order.  Positions come from
      here (:meth:`positions`); id 0 maps to point 1.0, so ``points`` is
      not monotone and is never searched;
    - ``points``: each id's point on the unit circle;
    - ``gaps``: the clockwise distance from position ``p`` to ``p + 1``
      (:func:`~repro.core.intervals.ring_gaps`), the step ``next`` adds;
    - ``run``: how many consecutive hops from ``p`` follow a successor
      pointer equal to the next sorted live id (:attr:`ALL` when every
      pointer does).  A walk of ``j`` hops from ``p`` is exactly what
      ``j`` live ``next`` calls return iff ``j <= run[p]``.

    ``key`` is the ``(epoch, patches)`` pair of the snapshot state the
    view was read from.
    """

    __slots__ = ("key", "ids", "points", "gaps", "run")

    #: ``run`` of every position on a ring whose pointers all agree.
    ALL = 1 << 62

    def __init__(self, snap: "RingSnapshot", key: tuple[int, int]):
        np = _np
        n = snap.n
        self.key = key
        self.ids = snap.ids_np.copy()
        self.points = np.where(self.ids == 0, 1.0, self.ids / float(1 << snap.m))
        self.gaps = ring_gaps(self.points)
        succ = snap.succ_first_np[snap.order_np]
        bad = np.flatnonzero(succ != np.roll(self.ids, -1))
        if bad.size == 0:
            self.run = np.full(n, self.ALL, dtype=np.int64)
        else:
            # Distance to the next disagreeing pointer, wrapping once.
            at = np.arange(n, dtype=np.int64)
            self.run = np.append(bad, bad[0] + n)[np.searchsorted(bad, at)] - at

    def positions(self, peer_ids):
        """Ring position of each id (a numpy array), ``-1`` where absent."""
        ids = self.ids
        q = _np.searchsorted(ids, peer_ids)
        q[q == len(ids)] = 0
        return _np.where(ids[q] == peer_ids, q, -1)

    def peer(self, q: int) -> PeerRef:
        """The peer at ring position ``q``, as ``next`` would return it."""
        return PeerRef(peer_id=int(self.ids[q]), point=float(self.points[q]))


class RouteTable:
    """One lookup per owner arc, from one entry peer, for one snapshot state.

    Arc ``j`` is ``(ids[j-1], ids[j]]`` of the snapshot's sorted live ids
    (arc 0 wraps past zero).  Two arrays, parallel over arcs:

    - ``owner``: the sorted position of the id the arc's lookup returns;
    - ``hops``: the hops it takes, ``-1`` where it exhausts the hop
      budget (the answer path replays those in Python, so a failing
      arc reports the failed attempt's exact charges).

    ``key`` is ``(patches, entry_id, mode, rpc_latency, oneway_latency,
    timeout)``: the snapshot state and the exact call the table answers
    (see :func:`build_route_table`).
    """

    __slots__ = ("key", "owner", "hops")

    def __init__(self, key: tuple, owner, hops):
        self.key = key
        self.owner = owner
        self.hops = hops


class _SlotMap:
    """Dict-shaped id -> slot view over a compact snapshot's arrays.

    Compact snapshots (the struct-of-arrays substrates) carry no Python
    dict -- a million-entry dict would cost more than the arrays it
    indexes -- so membership and slot resolution go through the dense
    ``pos_table`` when present, else a binary search of the sorted id
    view.  Read-only: the snapshot's splice methods maintain the arrays
    this resolves against.
    """

    __slots__ = ("_snap",)

    def __init__(self, snap: "RingSnapshot"):
        self._snap = snap

    def _slot(self, node_id: int) -> int:
        snap = self._snap
        table = snap.pos_table
        if table is not None:
            if node_id < 0 or node_id >= len(table):
                return -1
            return int(table[node_id]) - 1
        ids = snap._ids_buf
        i = int(_np.searchsorted(ids[: snap.n], node_id))
        if i >= snap.n or int(ids[i]) != node_id:
            return -1
        return int(snap._order_buf[i])

    def __getitem__(self, node_id: int) -> int:
        slot = self._slot(node_id)
        if slot < 0:
            raise KeyError(node_id)
        return slot

    def __contains__(self, node_id: int) -> bool:
        return self._slot(node_id) >= 0

    def get(self, node_id: int, default=None):
        slot = self._slot(node_id)
        return default if slot < 0 else slot


class RingSnapshot:
    """Struct-of-arrays view of a Chord ring with incremental maintenance.

    Copies every node's successor list and finger table (the live lists
    mutate in place during stabilization) and, when numpy is available,
    lays them out as dense matrices indexed by free-list *slot* so a
    lockstep round is a few vectorized gathers instead of per-node
    attribute traffic.  Build cost is O(n * m); membership events after
    that splice the sorted views and rewrite single rows
    (:meth:`apply_join` / :meth:`apply_remove` / :meth:`apply_update`)
    instead of rebuilding, with :attr:`patches` counting the row-level
    edits applied since construction.

    Under ``REPRO_PURE_PYTHON`` (or without numpy) the same slot
    discipline runs over plain Python lists; the ``compact=True``
    construction path (:meth:`from_arrays`) keeps *only* the numpy
    arrays, for substrates where per-node Python mirrors would dominate
    memory.
    """

    __slots__ = (
        "epoch", "m", "n", "pos", "succ_lists", "finger_lists", "free",
        "ids", "patches", "_width", "slot_ids_np", "finger_mat", "succ_mat",
        "succ_first_np", "_ids_buf", "_order_buf", "pos_table", "_walk",
        "route",
    )

    #: Largest identifier space for which a dense id -> slot table is
    #: materialized (2^22 entries of int32 = 16 MiB); larger spaces fall
    #: back to binary search for liveness/slot queries.
    MAX_TABLE_BITS = 22

    def __init__(self, epoch: int, m: int, ids, succ_lists, finger_lists):
        self.epoch = epoch
        self.m = m
        self.n = len(ids)
        self.patches = 0
        self._walk: WalkView | None = None
        #: The :class:`RouteTable` last built by :func:`build_route_table`
        #: (read only while its key matches the call and state).
        self.route: RouteTable | None = None
        self.free: list[int] = []
        self._width = max((len(s) for s in succ_lists), default=1)
        # Slots are handed out in sorted-id order at build time, so the
        # initial order view is just 0..n-1.
        self.ids = list(ids)
        self.pos = {node_id: i for i, node_id in enumerate(ids)}
        self.succ_lists = [tuple(s) for s in succ_lists]
        self.finger_lists = [tuple(f) for f in finger_lists]
        if _np is not None:
            self._alloc_arrays()
        else:
            self.slot_ids_np = None
            self.finger_mat = None
            self.succ_mat = None
            self.succ_first_np = None
            self._ids_buf = None
            self._order_buf = None
            self.pos_table = None

    def _alloc_arrays(self) -> None:
        np = _np
        n, m = self.n, self.m
        cap = max(n, 1)
        ids_arr = np.asarray(self.ids, dtype=np.int64)
        self.slot_ids_np = np.empty(cap, dtype=np.int64)
        self.slot_ids_np[:n] = ids_arr
        self.finger_mat = np.full((cap, m), -1, dtype=np.int64)
        if n:
            self.finger_mat[:n] = np.fromiter(
                (-1 if f is None else f for fl in self.finger_lists for f in fl),
                dtype=np.int64,
                count=n * m,
            ).reshape(n, m)
        self.succ_mat = np.full((cap, self._width), -1, dtype=np.int64)
        self.succ_first_np = np.empty(cap, dtype=np.int64)
        for i, s in enumerate(self.succ_lists):
            if s:
                self.succ_mat[i, : len(s)] = s
            self.succ_first_np[i] = s[0] if s else self.ids[i]
        self._ids_buf = np.empty(cap, dtype=np.int64)
        self._ids_buf[:n] = ids_arr
        self._order_buf = np.empty(cap, dtype=np.int64)
        self._order_buf[:n] = np.arange(n, dtype=np.int64)
        if m <= self.MAX_TABLE_BITS:
            # Dense id -> slot + 1 (0 = dead): O(1) liveness and slot
            # gathers per round instead of binary searches.
            table = np.zeros(1 << m, dtype=np.int32)
            if n:
                table[ids_arr] = np.arange(1, n + 1, dtype=np.int32)
            self.pos_table = table
        else:
            self.pos_table = None

    @classmethod
    def build(cls, network) -> "RingSnapshot":
        ids = list(network.sorted_ids())
        nodes = network.nodes
        succ_lists = [tuple(nodes[i].successors) for i in ids]
        finger_lists = [tuple(nodes[i].fingers) for i in ids]
        return cls(network.churn_epoch, network.m, ids, succ_lists, finger_lists)

    @classmethod
    def from_arrays(
        cls, m: int, ids, succ_mat, finger_mat, epoch: int = 0
    ) -> "RingSnapshot":
        """Compact construction straight from prebuilt numpy arrays.

        ``ids`` must be sorted and distinct; ``succ_mat``/``finger_mat``
        are row-aligned with it (``-1`` = padding / empty finger).  No
        Python list mirrors are kept: the exact-replay lane decodes rows
        on demand and id -> slot goes through :class:`_SlotMap`.  This is
        the construction the million-node substrates use -- per-node
        memory is exactly the array rows.
        """
        if _np is None:
            raise RuntimeError("compact snapshots require numpy")
        np = _np
        snap = object.__new__(cls)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        n = len(ids)
        snap.epoch = epoch
        snap.m = m
        snap.n = n
        snap.patches = 0
        snap._walk = None
        snap.route = None
        snap.free = []
        snap.ids = None
        snap.succ_lists = None
        snap.finger_lists = None
        snap._width = succ_mat.shape[1] if succ_mat.ndim == 2 else 1
        snap.slot_ids_np = ids.copy()
        snap.succ_mat = np.ascontiguousarray(succ_mat, dtype=np.int64)
        snap.finger_mat = np.ascontiguousarray(finger_mat, dtype=np.int64)
        first = snap.succ_mat[:, 0] if n else np.empty(0, dtype=np.int64)
        snap.succ_first_np = np.where(first >= 0, first, ids).astype(np.int64)
        snap._ids_buf = ids.copy()
        snap._order_buf = np.arange(n, dtype=np.int64)
        if m <= cls.MAX_TABLE_BITS:
            table = np.zeros(1 << m, dtype=np.int32)
            if n:
                table[ids] = np.arange(1, n + 1, dtype=np.int32)
            snap.pos_table = table
        else:
            snap.pos_table = None
        snap.pos = _SlotMap(snap)
        return snap

    # -- sorted views -------------------------------------------------------

    @property
    def ids_np(self):
        """Sorted live ids as a numpy view (None in the pure-Python lane)."""
        return None if self._ids_buf is None else self._ids_buf[: self.n]

    @property
    def order_np(self):
        """Slot of each sorted position, parallel to :attr:`ids_np`."""
        return None if self._order_buf is None else self._order_buf[: self.n]

    def sorted_ids_list(self) -> list[int]:
        """The live membership in sorted order as plain ints."""
        if self.ids is not None:
            return list(self.ids)
        return [int(v) for v in self._ids_buf[: self.n]]

    def alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is a live ring member in this snapshot."""
        return node_id in self.pos

    def walk_view(self) -> WalkView | None:
        """The :class:`WalkView` of the current state (None without numpy).

        Cached and keyed on ``(epoch, patches)``: every splice or row
        patch moves one of the two, so a view is never read against a
        state it was not built from.
        """
        if self._ids_buf is None or self.n == 0:
            return None
        key = (self.epoch, self.patches)
        view = self._walk
        if view is None or view.key != key:
            view = self._walk = WalkView(self, key)
        return view

    # -- row access (the exact-replay lane reads through these) ------------

    def succs_at(self, slot: int):
        """The successor list stored at ``slot`` as a tuple of ids."""
        lists = self.succ_lists
        if lists is not None:
            return lists[slot]
        return tuple(int(v) for v in self.succ_mat[slot] if v >= 0)

    def fingers_at(self, slot: int):
        """The finger table stored at ``slot`` (None = unset finger)."""
        lists = self.finger_lists
        if lists is not None:
            return lists[slot]
        return tuple(None if v < 0 else int(v) for v in self.finger_mat[slot])

    # -- incremental maintenance -------------------------------------------

    def _alloc_slot(self) -> int:
        if self.free:
            return self.free.pop()
        slot = self.n  # live + free == allocated; free is empty here
        if self.slot_ids_np is not None and slot >= len(self.slot_ids_np):
            self._grow_slots(slot + 1)
        if self.succ_lists is not None and slot == len(self.succ_lists):
            self.succ_lists.append(())
            self.finger_lists.append(())
        return slot

    def _grow_slots(self, need: int) -> None:
        np = _np
        cap = max(need, 2 * len(self.slot_ids_np))
        for name in ("slot_ids_np", "succ_first_np"):
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=np.int64)
            fresh[: len(old)] = old
            setattr(self, name, fresh)
        for name in ("finger_mat", "succ_mat"):
            old = getattr(self, name)
            fresh = np.full((cap, old.shape[1]), -1, dtype=np.int64)
            fresh[: len(old)] = old
            setattr(self, name, fresh)

    def _grow_sorted(self) -> None:
        np = _np
        cap = max(self.n + 1, 2 * len(self._ids_buf))
        for name in ("_ids_buf", "_order_buf"):
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=np.int64)
            fresh[: self.n] = old[: self.n]
            setattr(self, name, fresh)

    def _grow_width(self, width: int) -> None:
        np = _np
        old = self.succ_mat
        fresh = np.full((len(old), width), -1, dtype=np.int64)
        fresh[:, : old.shape[1]] = old
        self.succ_mat = fresh
        self._width = width

    def _set_rows(self, slot: int, node_id: int, succs, fingers) -> None:
        succs = tuple(succs)
        fingers = tuple(fingers)
        if self.succ_lists is not None:
            self.succ_lists[slot] = succs
            self.finger_lists[slot] = fingers
        if self.slot_ids_np is not None:
            if len(succs) > self._width:
                self._grow_width(len(succs))
            row = self.succ_mat[slot]
            if succs:
                row[: len(succs)] = succs
            row[len(succs):] = -1
            self.finger_mat[slot] = [-1 if f is None else f for f in fingers]
            self.slot_ids_np[slot] = node_id
            self.succ_first_np[slot] = succs[0] if succs else node_id

    def apply_join(self, node_id: int, succs, fingers) -> None:
        """Splice a joined id into the sorted views and write its rows.

        O(log n) row cells written plus one O(n) 1-D memmove of the
        sorted id/order views -- never a matrix rebuild.  An id already
        present degrades to :meth:`apply_update` (re-join after a
        remove processed in the same delta drain).
        """
        if node_id in self.pos:
            self.apply_update(node_id, succs, fingers)
            return
        slot = self._alloc_slot()
        self._set_rows(slot, node_id, succs, fingers)
        if self.ids is not None:
            self.ids.insert(_bisect.bisect_left(self.ids, node_id), node_id)
        if self._ids_buf is not None:
            if self.n == len(self._ids_buf):
                self._grow_sorted()
            i = int(_np.searchsorted(self._ids_buf[: self.n], node_id))
            self._ids_buf[i + 1 : self.n + 1] = self._ids_buf[i : self.n]
            self._ids_buf[i] = node_id
            self._order_buf[i + 1 : self.n + 1] = self._order_buf[i : self.n]
            self._order_buf[i] = slot
            if self.pos_table is not None:
                self.pos_table[node_id] = slot + 1
        if isinstance(self.pos, dict):
            self.pos[node_id] = slot
        self.n += 1
        self.patches += 1

    def apply_remove(self, node_id: int) -> None:
        """Splice a departed id out of the sorted views, freeing its slot.

        The slot's row data is left stale on purpose: live nodes'
        finger/successor entries still referencing the departed id are
        exactly what the live ring holds after a crash, and the replay
        lanes route around them through the same liveness checks.  A
        no-op for ids not present (crashed before the delta drained).
        """
        if node_id not in self.pos:
            return
        slot = self.pos[node_id]
        if isinstance(self.pos, dict):
            del self.pos[node_id]
        if self.ids is not None:
            del self.ids[_bisect.bisect_left(self.ids, node_id)]
        if self._ids_buf is not None:
            i = int(_np.searchsorted(self._ids_buf[: self.n], node_id))
            self._ids_buf[i : self.n - 1] = self._ids_buf[i + 1 : self.n]
            self._order_buf[i : self.n - 1] = self._order_buf[i + 1 : self.n]
            if self.pos_table is not None:
                self.pos_table[node_id] = 0
        self.free.append(slot)
        self.n -= 1
        self.patches += 1

    def apply_update(self, node_id: int, succs, fingers) -> None:
        """Rewrite one live id's successor/finger rows in place (O(log n))."""
        self._set_rows(self.pos[node_id], node_id, succs, fingers)
        self.patches += 1

    def patch_fingers(self, node_id: int, entries: dict[int, int | None]) -> None:
        """Point-patch individual finger cells of one live id's row."""
        slot = self.pos[node_id]
        if self.finger_lists is not None:
            row = list(self.finger_lists[slot])
            for f, value in entries.items():
                row[f] = value
            self.finger_lists[slot] = tuple(row)
        if self.finger_mat is not None:
            for f, value in entries.items():
                self.finger_mat[slot, f] = -1 if value is None else value
        self.patches += 1

    def patch_succs(self, node_id: int, succs) -> None:
        """Rewrite one live id's successor list, leaving fingers alone."""
        slot = self.pos[node_id]
        succs = tuple(succs)
        if self.succ_lists is not None:
            self.succ_lists[slot] = succs
        if self.succ_mat is not None:
            if len(succs) > self._width:
                self._grow_width(len(succs))
            row = self.succ_mat[slot]
            if succs:
                row[: len(succs)] = succs
            row[len(succs):] = -1
            self.succ_first_np[slot] = succs[0] if succs else node_id
        self.patches += 1

    # -- equivalence (tests pin incremental == rebuild through this) --------

    def canonical_state(self):
        """The logical ring state, id-ordered and representation-free.

        ``(id, successor-tuple, finger-tuple)`` per live member, decoded
        from the numpy arrays when they exist (so the bit-identity
        property test exercises the maintained arrays, not the Python
        mirrors) and from the list mirrors in the pure-Python lane.  Two
        snapshots are equivalent iff their canonical states are equal --
        slot numbering and free-list history are representation detail.
        """
        if self.slot_ids_np is not None:
            out = []
            for i in range(self.n):
                slot = int(self._order_buf[i])
                node_id = int(self._ids_buf[i])
                succs = tuple(int(v) for v in self.succ_mat[slot] if v >= 0)
                fingers = tuple(
                    None if v < 0 else int(v) for v in self.finger_mat[slot]
                )
                out.append((node_id, succs, fingers))
            return tuple(out)
        return tuple(
            (node_id, self.succ_lists[self.pos[node_id]],
             self.finger_lists[self.pos[node_id]])
            for node_id in self.ids
        )


def lockstep_resolve(
    snapshot: RingSnapshot,
    entry_id: int,
    targets,
    *,
    mode: str = "iterative",
    rpc_latency: float,
    oneway_latency: float,
    timeout: float,
) -> list[LookupTrace]:
    """Replay one lookup per target from ``entry_id``, all in lockstep.

    ``rpc_latency`` is the full round-trip charge of one successful RPC
    (two one-way samples), ``oneway_latency`` a single forwarded leg,
    ``timeout`` the charge of a call to a dead node.  Returns one
    :class:`LookupTrace` per target, in order; traces with ``ok=False``
    carry the charges of the *failed attempt*, which callers discard in
    favour of a live re-execution (see the module docstring).  The rows
    of :func:`resolve_lookups`, as records.
    """
    return resolve_lookups(
        snapshot, targets, entry_id, mode, rpc_latency, oneway_latency, timeout
    ).traces()


def resolve_lookups(
    snapshot: RingSnapshot,
    targets,
    entry_id: int,
    mode: str,
    rpc_latency: float,
    oneway_latency: float,
    timeout: float,
) -> Lookups:
    """:func:`lockstep_resolve` as :class:`Lookups` columns.

    The arguments after ``targets`` are the lookup inputs -- what a
    replayed lookup reads besides the ring -- in the order the adapters
    keep them as one tuple (``resolve_lookups(snapshot, targets,
    *inputs)``), which is also the route table's key after its ring
    state and :func:`replay_key`'s after its view.  A current
    :class:`RouteTable` (:func:`build_route_table`, keyed on this exact
    call and the snapshot's state) answers every batch size with array
    work only; otherwise batches of
    :data:`~repro.dht.api.NUMPY_MIN_BATCH` or more take the vectorized
    lane and smaller ones the Python replay.
    """
    if entry_id not in snapshot.pos:
        raise KeyError(f"entry node {entry_id} is not in the snapshot")
    budget = hop_budget(snapshot.m)
    recursive = mode != "iterative"
    lat = oneway_latency if recursive else rpc_latency
    table = snapshot.route
    if table is not None and table.key == _route_key(
        snapshot, entry_id, mode, rpc_latency, oneway_latency, timeout
    ):
        return _table_resolve(
            snapshot, table, entry_id, targets, budget, lat, timeout, recursive
        )
    if (
        _np is None
        or snapshot.ids_np is None
        or len(targets) < NUMPY_MIN_BATCH
    ):
        sim = _sim_recursive if recursive else _sim_iterative
        return Lookups.from_traces(
            [sim(snapshot, entry_id, int(t), budget, lat, timeout) for t in targets]
        )
    return _vector_resolve(
        snapshot, entry_id, targets, budget, lat, timeout, recursive=recursive
    )


def build_route_table(
    snapshot: RingSnapshot,
    entry_id: int,
    mode: str,
    rpc_latency: float,
    oneway_latency: float,
    timeout: float,
) -> bool:
    """Route every owner arc once and keep the result on the snapshot.

    Takes the snapshot and the lookup inputs (see
    :func:`resolve_lookups`; ``build_route_table(snapshot, *inputs)``)
    and returns whether ``snapshot.route`` now answers that call.  Refused
    (no table, the lanes keep serving) without numpy or when some
    finger or successor entry of a live row names a dead id: a dead id
    can sit inside an arc and split its targets between routes.  The
    rows are checked ``_ROUTE_CHUNK`` at a time, stopping at the first
    dead reference, and the arcs are routed by the vectorized lane in
    chunks of the same size, with each arc's own end id as its target.

    The key holds ``snapshot.patches``, which every row edit and splice
    moves (a rebuilt snapshot is a new object), not the epoch: a
    stabilization round that changes no row keeps the table.  Building
    costs O(n log n) array work, so only the adapters' ``warm_lockstep``
    calls this, never the request path.
    """
    if _np is None or snapshot.ids_np is None:
        return False
    if entry_id not in snapshot.pos:
        raise KeyError(f"entry node {entry_id} is not in the snapshot")
    key = _route_key(snapshot, entry_id, mode, rpc_latency, oneway_latency, timeout)
    if snapshot.route is not None and snapshot.route.key == key:
        return True
    snapshot.route = None
    if not _names_only_live_ids(snapshot):
        return False
    np = _np
    ids = snapshot.ids_np
    n = snapshot.n
    budget = hop_budget(snapshot.m)
    recursive = mode != "iterative"
    owner = np.empty(n, dtype=np.int32)
    hops = np.empty(n, dtype=np.int16)
    for lo in range(0, n, _ROUTE_CHUNK):
        hi = min(lo + _ROUTE_CHUNK, n)
        state, own, h = _vector_frontier(
            snapshot, entry_id, ids[lo:hi], budget, recursive=recursive
        )
        # On certified rows a lookup leaves the lane only by exhausting
        # its hop budget, which makes the arc a failing one.
        ok = state == _OK
        owner[lo:hi] = np.where(ok, np.searchsorted(ids, own), 0)
        hops[lo:hi] = np.where(ok, h, -1)
    snapshot.route = RouteTable(key, owner, hops)
    return True


def _route_key(snapshot, *inputs):
    return (snapshot.patches, *inputs)


def replay_key(view: WalkView | None, inputs: tuple) -> tuple | None:
    """The Chord adapters' ``replay_key()``: ``view`` and what an
    uncharged ``resolve_many`` reads besides it.

    ``inputs`` is the adapter's tuple of lookup inputs ``(entry_id,
    mode, rpc_latency, oneway_latency, timeout)`` (see
    :func:`resolve_lookups`).  The view comes first, to be compared by
    identity: it is a new object whenever the snapshot's epoch or patch
    count moves or the snapshot is rebuilt.  The rest is the route
    table's key after its ring state, compared by value.  None when
    ``view`` is None (replay refused).
    """
    if view is None:
        return None
    return (view, *inputs)


def _names_only_live_ids(snapshot: RingSnapshot) -> bool:
    """Whether every finger and successor entry of every live row is live."""
    table = snapshot.pos_table
    ids = snapshot.ids_np
    order = snapshot.order_np
    for lo in range(0, snapshot.n, _ROUTE_CHUNK):
        slots = order[lo : lo + _ROUTE_CHUNK]
        for mat in (snapshot.finger_mat, snapshot.succ_mat):
            refs = mat[slots]
            refs = refs[refs >= 0]
            live = table[refs] > 0 if table is not None else _alive_np(ids, refs)
            if not live.all():
                return False
    return True


def _table_resolve(
    snapshot: RingSnapshot,
    table: RouteTable,
    entry_id: int,
    targets,
    budget: int,
    hop_latency: float,
    timeout: float,
    recursive: bool,
) -> Lookups:
    """:func:`resolve_lookups` read from a current :class:`RouteTable`."""
    np = _np
    ids = snapshot.ids_np
    arc = np.searchsorted(ids, targets)
    arc[arc == len(ids)] = 0  # past the last id: the wrapping arc 0
    hops = table.hops[arc].astype(np.int64)
    found = _clean_lookups(
        ids[table.owner[arc]], hops, entry_id, hop_latency, recursive
    )
    sim = _sim_recursive if recursive else _sim_iterative
    for i in (hops < 0).nonzero()[0].tolist():  # failing arcs: replay exactly
        found._replace(
            i, sim(snapshot, entry_id, int(targets[i]), budget, hop_latency, timeout)
        )
    return found


# -- exact Python replay (slow lane, and the no-numpy path) ----------------


def _sim_step(snapshot: RingSnapshot, node_id: int, target: int, excluded):
    """``ChordNode.lookup_step`` evaluated against the snapshot.

    Byte-for-byte transcription of the live routing step -- the
    effective successor skips excluded ids, ``closest_preceding_node``
    scans fingers then successors in reverse, and a self/excluded best
    hop falls through to the successor -- so replayed routes cannot
    drift from what the live node would have answered.
    """
    slot = snapshot.pos[node_id]
    succs = snapshot.succs_at(slot)
    succ = next((s for s in succs if s not in excluded), node_id)
    if succ == node_id or in_open_closed(target, node_id, succ):
        return "done", succ
    nxt = None
    for finger in reversed(snapshot.fingers_at(slot)):
        if (
            finger is not None
            and finger not in excluded
            and in_open_open(finger, node_id, target)
        ):
            nxt = finger
            break
    if nxt is None:
        for s in reversed(succs):
            if s not in excluded and in_open_open(s, node_id, target):
                nxt = s
                break
    if nxt is None:
        nxt = succs[0] if succs else node_id  # get_successor()
    if nxt == node_id or nxt in excluded:
        nxt = succ
    return "forward", nxt


def _sim_iterative(
    snapshot: RingSnapshot,
    entry_id: int,
    target: int,
    budget: int,
    rpc_latency: float,
    timeout: float,
) -> LookupTrace:
    """Replay of the client-driven iterative loop, exclusions included.

    Mirrors :meth:`ChordNode.lookup` statement for statement: the first
    step is answered locally (uncharged), each forward is one charged
    RPC, a dead owner is pinged (one lost message + timeout), excluded,
    and the query re-asked from the last responsive node, and the hop
    budget is checked at exactly the same points.
    """
    excluded: tuple[int, ...] = ()
    current = entry_id
    kind, nxt = _sim_step(snapshot, entry_id, target, excluded)
    hops = 0
    msgs = 0
    calls = 0
    touts = 0
    lat = 0.0

    def ask(node_id: int):
        nonlocal msgs, calls, lat
        if node_id != entry_id:
            calls += 1
            msgs += 2
            lat += rpc_latency
        return _sim_step(snapshot, node_id, target, excluded)

    while True:
        if kind == "done":
            owner = nxt
            if owner == entry_id:
                return LookupTrace(owner, hops, msgs, lat, calls, touts, True)
            if snapshot.alive(owner):
                calls += 1
                msgs += 2
                lat += rpc_latency  # the liveness ping before handing out the owner
                return LookupTrace(owner, hops, msgs, lat, calls, touts, True)
            calls += 1
            touts += 1
            msgs += 1
            lat += timeout
            excluded = excluded + (owner,)
            hops += 1
            if hops >= budget:
                return LookupTrace(-1, hops, msgs, lat, calls, touts, False)
            kind, nxt = ask(current)
            continue
        if hops >= budget:
            return LookupTrace(-1, hops, msgs, lat, calls, touts, False)
        if snapshot.alive(nxt):
            calls += 1
            msgs += 2
            lat += rpc_latency
            kind, result = _sim_step(snapshot, nxt, target, excluded)
            hops += 1
            current, nxt = nxt, result
        else:
            calls += 1
            touts += 1
            msgs += 1
            lat += timeout
            excluded = excluded + (nxt,)
            hops += 1
            kind, nxt = ask(current)


def _sim_recursive(
    snapshot: RingSnapshot,
    entry_id: int,
    target: int,
    budget: int,
    oneway_latency: float,
    timeout: float,
) -> LookupTrace:
    """Replay of the forwarded (recursive) chain.

    Mirrors ``lookup_recursive``/``forward_lookup``: one charged one-way
    message per forwarded hop, the budget checked on arrival, a dead hop
    or a dead owner failing the whole query (no client-side rerouting),
    and the owner's single direct reply charged as one message with no
    latency leg.
    """
    cur = entry_id
    hops = 0
    msgs = 0
    calls = 0
    touts = 0
    lat = 0.0
    while True:
        if hops > budget:
            return LookupTrace(-1, hops, msgs, lat, calls, touts, False)
        kind, nxt = _sim_step(snapshot, cur, target, ())
        if kind == "done":
            owner = nxt
            if owner != entry_id:
                if not snapshot.alive(owner):
                    return LookupTrace(-1, hops, msgs, lat, calls, touts, False)
                msgs += 1  # the owner's direct reply to the querier
            return LookupTrace(owner, hops, msgs, lat, calls, touts, True)
        if not snapshot.alive(nxt):
            calls += 1
            touts += 1
            msgs += 1
            lat += timeout
            return LookupTrace(-1, hops, msgs, lat, calls, touts, False)
        calls += 1
        msgs += 1
        lat += oneway_latency
        hops += 1
        cur = nxt


# -- the vectorized lane ----------------------------------------------------


def _alive_np(ids, values):
    """Membership of ``values`` in the sorted ``ids`` array."""
    pos = _np.searchsorted(ids, values)
    pos = _np.minimum(pos, len(ids) - 1)
    return ids[pos] == values


# Per-lookup states of the lockstep frontier.
_ACTIVE, _OK, _REPLAY = 0, 1, 2


def _clean_lookups(
    owner, hops, entry_id: int, hop_latency: float, recursive: bool
) -> Lookups:
    """Lookups that met no dead node, charged as live.

    ``owner``/``hops`` are int64 arrays.  Iterative: one RPC per hop
    plus the liveness ping of an owner other than the entry, two
    messages each.  Recursive: one one-way message per hop plus the
    owner's direct reply.  ``hop_latency`` is the per-call charge (round
    trip, or one way), multiplied rather than summed per hop -- equal
    for integer delays.  The int64 -> float64 product rounds exactly as
    Python's ``float * int`` does.
    """
    away = owner != entry_id
    if recursive:
        calls = hops
        messages = hops + away
    else:
        calls = hops + away
        messages = 2 * calls
    k = len(owner)
    return Lookups(
        owner,
        hops,
        messages,
        hop_latency * calls,
        calls,
        _np.zeros(k, dtype=_np.int64),
        _np.ones(k, dtype=bool),
    )


def _vector_resolve(
    snapshot: RingSnapshot,
    entry_id: int,
    targets,
    budget: int,
    hop_latency: float,
    timeout: float,
    *,
    recursive: bool,
) -> Lookups:
    """:func:`_vector_frontier`'s outcomes as :class:`Lookups`.

    Lookups the lane parked are finished by the exact Python simulator,
    which recomputes them from scratch (replays are side-effect-free, so
    restarting loses nothing).  ``hop_latency`` is the round-trip charge
    per hop in iterative mode and the one-way charge in recursive mode.
    """
    t = _np.asarray(targets, dtype=_np.int64)
    state, owner, hops = _vector_frontier(
        snapshot, entry_id, t, budget, recursive=recursive
    )
    found = _clean_lookups(owner, hops, entry_id, hop_latency, recursive)
    sim = _sim_recursive if recursive else _sim_iterative
    for i in _np.flatnonzero(state != _OK).tolist():
        found._replace(i, sim(snapshot, entry_id, int(t[i]), budget, hop_latency, timeout))
    return found


def _vector_frontier(
    snapshot: RingSnapshot,
    entry_id: int,
    t,
    budget: int,
    *,
    recursive: bool,
):
    """Advance all lookups one hop per round via array-indexed routing.

    Returns the final frontier as ``(state, owner, hops)`` arrays over
    the targets ``t``.  Handles only the uncomplicated path -- every
    touched node alive, no exclusion lists.  The moment a lookup meets a
    dead reference or exhausts its budget it is parked in the
    ``_REPLAY`` state; ``owner``/``hops`` are final only for ``_OK``.

    The frontier ``cur`` holds *slots* (stable row indices), so routing
    is a gather through the finger/successor matrices; id -> slot for
    forwarded values goes through the dense ``pos_table`` when present,
    else a binary search of the sorted id view composed with the
    position -> slot ``order`` array.

    Interval tests use modular distances: with the identifier space a
    power of two, ``in_open_open(x, a, b)`` is
    ``dx != 0 and (dx < db or db == 0)`` for ``dx = (x-a) & mask``,
    ``db = (b-a) & mask`` (``db == 0`` covers the ``a == b`` whole-ring
    convention), and ``in_open_closed(x, a, b)`` with ``a != b`` is
    ``dx != 0 and dx <= db`` -- two integer ops and two compares per
    element, no branching.
    """
    np = _np
    k = len(t)
    ids = snapshot.ids_np
    order = snapshot.order_np
    slot_ids = snapshot.slot_ids_np
    fingers = snapshot.finger_mat
    succ_mat = snapshot.succ_mat
    succ_first = snapshot.succ_first_np
    table = snapshot.pos_table
    m = snapshot.m
    mask = (1 << m) - 1

    # Values probed below are always node ids drawn from snapshot state
    # (fingers, successor entries), never the -1 padding, so the dense
    # table can be indexed directly.
    if table is not None:

        def alive_of(v):
            return table[v] > 0

        def pos_of(v):
            return table[v].astype(np.int64) - 1

    else:

        def alive_of(v):
            return _alive_np(ids, v)

        def pos_of(v):
            return order[np.searchsorted(ids, v)]

    cur = np.full(k, snapshot.pos[entry_id], dtype=np.int64)
    hops = np.zeros(k, dtype=np.int64)
    owner = np.full(k, -1, dtype=np.int64)
    state = np.full(k, _ACTIVE, dtype=np.int8)

    while True:
        act = np.nonzero(state == _ACTIVE)[0]
        if act.size == 0:
            break
        if recursive:
            # forward_lookup checks the budget on arrival, before routing.
            over = hops[act] > budget
            if over.any():
                state[act[over]] = _REPLAY
                act = act[~over]
                if act.size == 0:
                    continue
        c = cur[act]
        node = slot_ids[c]
        tgt = t[act]
        succ = succ_first[c]
        # in_open_closed(tgt, node, succ); succ == node (whole-ring case)
        # short-circuits the test, so the a != b modular form suffices.
        d_t = (tgt - node) & mask
        d_s = (succ - node) & mask
        done = (succ == node) | ((d_t != 0) & (d_t <= d_s))

        if done.any():
            d_idx = act[done]
            own = succ[done]
            is_entry = own == entry_id
            ok = is_entry | alive_of(own)
            ok_idx = d_idx[ok]
            state[ok_idx] = _OK
            owner[ok_idx] = own[ok]
            # Dead owner: iterative mode excludes and re-routes, recursive
            # mode fails outright -- both exactly replayed in Python.
            state[d_idx[~ok]] = _REPLAY

        fwd = ~done
        if not fwd.any():
            continue
        f_idx = act[fwd]
        if not recursive:
            # The iterative client checks the budget before forwarding.
            over = hops[f_idx] >= budget
            if over.any():
                state[f_idx[over]] = _REPLAY
                f_idx = f_idx[~over]
                if f_idx.size == 0:
                    continue
        c = cur[f_idx]
        node = slot_ids[c]
        tgt = t[f_idx]
        succ = succ_first[c]
        # closest_preceding_node: the highest finger strictly inside
        # (node, target), whole rows at once.  Reversing the column axis
        # makes argmax return the *first* admissible entry scanning from
        # the top finger down -- the live node's scan order.
        d_t = (tgt - node) & mask
        whole_ring = (d_t == 0)[:, None]
        rows = fingers[c]
        d_f = (rows - node[:, None]) & mask
        ok_f = (rows >= 0) & (d_f != 0) & ((d_f < d_t[:, None]) | whole_ring)
        rev = ok_f[:, ::-1]
        pick = rev.argmax(axis=1)
        found = rev[np.arange(rows.shape[0]), pick]
        nxt = rows[np.arange(rows.shape[0]), m - 1 - pick]
        if not found.all():
            # ... then the successor list in reverse, then the successor.
            miss = np.nonzero(~found)[0]
            rows = succ_mat[c[miss]]
            d_s = (rows - node[miss, None]) & mask
            ok_s = (
                (rows >= 0)
                & (d_s != 0)
                & ((d_s < d_t[miss, None]) | whole_ring[miss])
            )
            rev = ok_s[:, ::-1]
            pick = rev.argmax(axis=1)
            sub_found = rev[np.arange(rows.shape[0]), pick]
            sub_nxt = rows[np.arange(rows.shape[0]), rows.shape[1] - 1 - pick]
            nxt[miss] = np.where(sub_found, sub_nxt, succ[miss])
        nxt = np.where(nxt == node, succ, nxt)  # lookup_step's self-fallback
        alive = alive_of(nxt)
        state[f_idx[~alive]] = _REPLAY  # dead hop: reroute (or fail) exactly
        live_idx = f_idx[alive]
        hops[live_idx] += 1
        cur[live_idx] = pos_of(nxt[alive])

    return state, owner, hops
