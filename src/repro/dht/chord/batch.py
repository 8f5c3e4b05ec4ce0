"""Lockstep batch lookup engine over the struct-of-arrays ring store.

The per-call Chord lookup pays Python RPC dispatch, metrics-counter and
finger-scan overhead *per hop*.  For a batch of ``k`` lookups on a ring
whose state is not changing, that work is pure interpretation overhead:
every routing step is a deterministic function of frozen node state.
This module resolves whole batches against a :class:`RingSnapshot` -- a
flat struct-of-arrays store of the ring (sorted identifiers, a dense
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
is small enough to materialize it).  A join or crash splices one id in
or out of the sorted views (an O(n) 1-D memmove of 8-byte words) and
writes its rows, never touching another node's.  The store *is* the
ring's state: :class:`~repro.dht.chord.network.ChordNetwork` creates
one, splices it on every membership change, and its
:class:`~repro.dht.chord.node.ChordNode` objects, each created when
something first addresses its peer, read and write their
successor lists and finger tables through it.  The engine routes on
exactly the rows the live path reads -- there is no second copy to keep
in step.

Correctness contract
--------------------

The engine is a *charge-identical replay*, not an approximation: for
every target it must produce the same owner, the same hop count, and
the same message/latency charges that :meth:`ChordNode.lookup` (or
``lookup_recursive``) would have produced against the same frozen node
state.  Three design rules make that exact:

- **Cost determinism.**  Offline replay is only charge-identical when
  the transport's per-call costs are deterministic (a ``deterministic``
  latency model and ``loss_rate == 0``); the adapter checks this before
  engaging and otherwise keeps the per-call loop.
- **Exact fallback.**  The vectorized lane handles the hot path -- no
  crashed references, no exclusion lists.  A lookup that touches a dead
  node (a stale finger/successor pointing at a crashed peer) is replayed
  from scratch by :func:`_sim_iterative`, which runs the live path's own
  coroutine (:func:`~repro.dht.chord.node.iterative_lookup`) and answers
  its requests from the stored rows through the live path's own
  routing step (:func:`~repro.dht.chord.node.route_step`), charging
  each as the transport would; :func:`_sim_recursive` replays the
  recursive chain with the same step.  A lookup that
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
  answers any batch with one ``searchsorted``, in ascending target
  order, and a gather.  The table holds each arc's owner as a sorted
  position, so an answer carries that position with the owner's id
  (:attr:`Lookups.position`), and the batch sampler starts its walks
  there without searching the ids again.  Only the adapters'
  ``warm_lockstep`` builds it, so a ring that changes between batches
  simply runs the lanes above.

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

from dataclasses import dataclass
from functools import partial

import numpy as _np

from ...core.intervals import ring_gaps
from ...sim.network import RpcTimeout
from ..api import NUMPY_MIN_BATCH, PeerRef
from .node import LookupError_, hop_budget, iterative_lookup, route_step

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

#: Rows per pass when wiring, certifying and routing a snapshot, so the
#: transient arrays stay bounded at any ring size.
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
    Columns are numpy arrays; slicing selects rows.  The adapters
    resolve a batch into one of these and charge only the rows their
    caller commits.

    ``position``, when not None, holds each owner's sorted position in
    the store at the state the rows were read from (``-1`` where
    unknown): a :class:`RouteTable` answer carries it, since the table
    reads it before the id, and :class:`WalkView` positions of that
    state are the same.  Rows replaced by a replay have none.
    """

    _COLUMNS = ("owner", "hops", "messages", "latency", "rpc_calls", "rpc_timeouts", "ok")
    _DTYPES = ("int64", "int64", "int64", "float64", "int64", "int64", "bool")

    __slots__ = (*_COLUMNS, "position")

    def __init__(
        self, owner, hops, messages, latency, rpc_calls, rpc_timeouts, ok, position=None
    ):
        self.owner = owner
        self.hops = hops
        self.messages = messages
        self.latency = latency
        self.rpc_calls = rpc_calls
        self.rpc_timeouts = rpc_timeouts
        self.ok = ok
        self.position = position

    @classmethod
    def from_traces(cls, traces) -> "Lookups":
        columns = [[getattr(t, name) for t in traces] for name in cls._COLUMNS]
        return cls(*[_np.array(c, dtype=d) for c, d in zip(columns, cls._DTYPES)])

    def __len__(self) -> int:
        return len(self.ok)

    def __getitem__(self, rows: slice) -> "Lookups":
        position = self.position
        return Lookups(
            *[getattr(self, name)[rows] for name in self._COLUMNS],
            None if position is None else position[rows],
        )

    def _replace(self, j: int, trace: LookupTrace) -> None:
        for name in self._COLUMNS:
            getattr(self, name)[j] = getattr(trace, name)
        if self.position is not None:
            self.position[j] = -1

    def traces(self) -> list[LookupTrace]:
        """The rows as :class:`LookupTrace` records."""
        columns = [getattr(self, name).tolist() for name in self._COLUMNS]
        return [LookupTrace(*row) for row in zip(*columns)]

    def owners(self) -> list[int]:
        """The owner column as plain ints."""
        return self.owner.tolist()

    def first_failure(self) -> int:
        """Index of the first row with ``ok=False`` (``len`` if none)."""
        bad = (~self.ok).nonzero()[0]
        return int(bad[0]) if bad.size else len(self.ok)

    def totals(self) -> tuple[int, float, int, int]:
        """``(messages, latency, rpc_calls, rpc_timeouts)`` over all rows."""
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

    ``key`` is the store's write count (``patches``) when the view was
    read.
    """

    __slots__ = ("key", "ids", "points", "gaps", "run")

    #: ``run`` of every position on a ring whose pointers all agree.
    ALL = 1 << 62

    def __init__(self, snap: "RingSnapshot", key: int):
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

    def peers(self, positions) -> list[PeerRef]:
        """The peers at ring positions ``positions`` (an int array), in
        order, as ``next`` would return them."""
        return list(map(PeerRef, self.ids[positions].tolist(), self.points[positions].tolist()))


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


class RingSnapshot:
    """The struct-of-arrays state of a Chord ring, rows at free-list slots.

    Sorted live ids (``ids_np``, with each position's slot in
    ``order_np``), then per slot: the id (``slot_ids_np``), the successor
    list (``succ_mat``, ``-1``-padded), its first entry
    (``succ_first_np``) and the finger table (``finger_mat``, ``-1`` =
    unset).  A lockstep round is a few vectorized gathers over these.
    Membership changes splice the sorted views (:meth:`apply_join` /
    :meth:`apply_remove`) and rows are rewritten one at a time
    (:meth:`write_succs` / :meth:`write_fingers` / :meth:`write_finger`)
    or all at once (:meth:`wire_perfectly`); :attr:`patches` counts
    these writes, so the cached :class:`WalkView` and the
    :class:`RouteTable` are read only against the state they came from.

    This is a :class:`~repro.dht.chord.network.ChordNetwork`'s whole
    routing state: its nodes read and write their rows here.
    """

    __slots__ = (
        "m", "n", "free", "patches", "_width", "slot_ids_np", "finger_mat",
        "succ_mat", "succ_first_np", "_ids_buf", "_order_buf", "pos_table",
        "_walk", "route", "_ints",
    )

    #: Largest identifier space for which a dense id -> slot table is
    #: materialized (2^22 entries of int32 = 16 MiB); larger spaces fall
    #: back to binary search for liveness/slot queries.
    MAX_TABLE_BITS = 22

    def __init__(self, m: int, ids, width: int):
        """A store holding the sorted, distinct ``ids`` at slots ``0..n-1``
        (slot ``i`` is sorted position ``i``), with empty rows: no
        fingers, no successors, ``width`` successor columns."""
        np = _np
        ids = np.array(ids, dtype=np.int64)
        n = len(ids)
        cap = max(n, 1)
        self.m = m
        self.n = n
        self.patches = 0
        self._walk: WalkView | None = None
        #: The :class:`RouteTable` last built by :func:`build_route_table`
        #: (read only while its key matches the call and state).
        self.route: RouteTable | None = None
        self.free: list[int] = []
        self._ints: dict = {}
        self._width = width
        self.slot_ids_np = np.empty(cap, dtype=np.int64)
        self.slot_ids_np[:n] = ids
        self.succ_first_np = self.slot_ids_np.copy()  # an empty list's get_successor()
        self.succ_mat = np.full((cap, width), -1, dtype=np.int64)
        self.finger_mat = np.full((cap, m), -1, dtype=np.int64)
        self._ids_buf = ids if n else np.empty(1, dtype=np.int64)
        self._order_buf = np.arange(cap, dtype=np.int64)
        if m <= self.MAX_TABLE_BITS:
            # Dense id -> slot + 1 (0 = dead): O(1) liveness and slot
            # gathers per round instead of binary searches.
            table = np.zeros(1 << m, dtype=np.int32)
            table[ids] = np.arange(1, n + 1, dtype=np.int32)
            self.pos_table = table
        else:
            self.pos_table = None

    # -- sorted views -------------------------------------------------------

    @property
    def ids_np(self):
        """Sorted live ids as a numpy view."""
        return self._ids_buf[: self.n]

    @property
    def order_np(self):
        """Slot of each sorted position, parallel to :attr:`ids_np`."""
        return self._order_buf[: self.n]

    @property
    def nbytes(self) -> int:
        """Bytes held by the store's arrays (not its cached views)."""
        arrays = (self.slot_ids_np, self.succ_first_np, self.finger_mat,
                  self.succ_mat, self._ids_buf, self._order_buf, self.pos_table)
        return sum(a.nbytes for a in arrays if a is not None)

    def sorted_ids_list(self) -> list[int]:
        """The live membership in sorted order as plain ints."""
        return self._ids_buf[: self.n].tolist()

    def slot(self, node_id: int) -> int:
        """The slot holding live ``node_id``'s rows, ``-1`` if it is not live."""
        table = self.pos_table
        if table is not None:
            if 0 <= node_id < len(table):
                return table.item(node_id) - 1
            return -1
        ids = self._ids_buf[: self.n]
        i = int(ids.searchsorted(node_id))
        if i < self.n and ids.item(i) == node_id:
            return self._order_buf.item(i)
        return -1

    def alive(self, node_id: int) -> bool:
        """Whether ``node_id`` is a live ring member."""
        table = self.pos_table
        if table is not None:
            return 0 <= node_id < len(table) and table.item(node_id) > 0
        return self.slot(node_id) >= 0

    def walk_view(self) -> WalkView | None:
        """The :class:`WalkView` of the current state (None on an empty ring).

        Cached and keyed on :attr:`patches`: every splice and row write
        moves it, so a view is never read against a state it was not
        built from, and a maintenance round that writes nothing keeps it.
        """
        if self.n == 0:
            return None
        view = self._walk
        if view is None or view.key != self.patches:
            view = self._walk = WalkView(self, self.patches)
        return view

    # -- row access ----------------------------------------------------------

    def succs_at(self, slot: int) -> list[int]:
        """A fresh list of the successor ids stored at ``slot``."""
        row = self.succ_mat[slot].tolist()
        if row and row[-1] < 0:
            del row[row.index(-1):]  # the padding is a suffix
        return row

    def fingers_at(self, slot: int) -> list[int | None]:
        """A fresh list of the finger table stored at ``slot`` (None = unset)."""
        row = self.finger_mat[slot].tolist()
        if -1 in row:
            return [None if v < 0 else v for v in row]
        return row

    def intern_ids(self, row: list) -> list:
        """``row`` with each id replaced by one int object shared per id.

        A decoded row holds fresh int objects.  Rows that nodes keep use
        shared ones instead, as rows built in Python do: a ring's lists
        then reference one object per id, not one per cell, which keeps
        the maintenance loops' working set small (unshared, chord-churn's
        serve took ~13% more CPU time on a 2-vCPU x86-64 VM).
        """
        ints = self._ints
        return [ints.setdefault(v, v) for v in row]

    # -- writes ----------------------------------------------------------------

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

    def write_succs(self, slot: int, succs) -> None:
        """Rewrite the successor list at ``slot``."""
        self._put_succs(slot, succs)
        self.patches += 1

    def _put_succs(self, slot: int, succs) -> None:
        k = len(succs)
        if k > self._width:
            self._grow_width(k)
        row = self.succ_mat[slot]
        row[:k] = succs
        row[k:] = -1
        self.succ_first_np[slot] = succs[0] if k else self.slot_ids_np[slot]

    def write_fingers(self, slot: int, fingers) -> None:
        """Rewrite the whole finger table at ``slot`` (None = unset)."""
        self.finger_mat[slot] = [-1 if f is None else f for f in fingers]
        self.patches += 1

    def write_finger(self, slot: int, f: int, value: int | None) -> None:
        """Rewrite finger ``f`` at ``slot`` (None = unset)."""
        self.finger_mat[slot, f] = -1 if value is None else value
        self.patches += 1

    def wire_perfectly(self, successor_list_size: int) -> None:
        """Set every live row to the ring's stabilized fixed point.

        The oracle wiring: each node's first ``min(successor_list_size,
        n)`` clockwise successors, and finger ``f`` of ``x`` the first
        live id at or after ``x + 2^f``, whose sorted position is the
        count of live ids below ``x + 2^f`` (wrapping at ``n``).  Where
        the dense id table is no larger than the ``n * m`` targets, that
        count is one gather from its prefix sum, else a binary search
        (on a small ring the prefix sum's transient would outweigh the
        searches).  Whole rows are written ``_ROUTE_CHUNK`` positions at
        a time.
        """
        n = self.n
        if n == 0:
            return
        np = _np
        ids = self.ids_np
        width = max(1, min(successor_list_size, n))
        if width > self._width:
            self._grow_width(width)
        steps = np.arange(1, width + 1)
        powers = np.left_shift(1, np.arange(self.m, dtype=np.int64))
        mask = (1 << self.m) - 1
        table = self.pos_table
        below = None
        if table is not None and len(table) <= n * self.m:
            below = np.zeros(len(table), dtype=np.int32)
            np.cumsum(table[:-1] > 0, dtype=np.int32, out=below[1:])
        for lo in range(0, n, _ROUTE_CHUNK):
            at = np.arange(lo, min(lo + _ROUTE_CHUNK, n))
            rows = self.order_np[at]
            succs = ids.take(at[:, None] + steps, mode="wrap")
            self.succ_mat[rows, :width] = succs
            self.succ_mat[rows, width:] = -1
            self.succ_first_np[rows] = succs[:, 0]
            targets = (ids[at, None] + powers) & mask
            found = ids.searchsorted(targets) if below is None else below[targets]
            self.finger_mat[rows] = ids.take(found, mode="wrap")
        self.patches += 1

    def apply_join(self, node_id: int, succs, fingers) -> int:
        """Splice a joined id into the sorted views, write its rows, and
        return its slot.

        Its own rows are written plus one O(n) 1-D memmove of the sorted
        id/order views -- never a matrix rebuild.
        """
        if self.free:
            slot = self.free.pop()
        else:
            slot = self.n  # live + free == allocated; free is empty here
            if slot >= len(self.slot_ids_np):
                self._grow_slots(slot + 1)
        self.slot_ids_np[slot] = node_id
        self._put_succs(slot, succs)
        self.finger_mat[slot] = [-1 if f is None else f for f in fingers]
        if self.n == len(self._ids_buf):
            self._grow_sorted()
        i = int(_np.searchsorted(self._ids_buf[: self.n], node_id))
        self._ids_buf[i + 1 : self.n + 1] = self._ids_buf[i : self.n]
        self._ids_buf[i] = node_id
        self._order_buf[i + 1 : self.n + 1] = self._order_buf[i : self.n]
        self._order_buf[i] = slot
        if self.pos_table is not None:
            self.pos_table[node_id] = slot + 1
        self.n += 1
        self.patches += 1
        return slot

    def apply_remove(self, node_id: int) -> None:
        """Splice a departed id out of the sorted views, freeing its slot.

        The slot's rows are left as they were until a join reuses it;
        live nodes' finger/successor entries still naming the departed
        id are exactly what the live ring holds after a crash, and the
        replay lanes route around them through the same liveness checks.
        """
        slot = self.slot(node_id)
        if slot < 0:
            raise KeyError(f"no node {node_id}")
        i = int(_np.searchsorted(self._ids_buf[: self.n], node_id))
        self._ids_buf[i : self.n - 1] = self._ids_buf[i + 1 : self.n]
        self._order_buf[i : self.n - 1] = self._order_buf[i + 1 : self.n]
        if self.pos_table is not None:
            self.pos_table[node_id] = 0
        self.free.append(slot)
        self.n -= 1
        self.patches += 1

    # -- equivalence ------------------------------------------------------------

    def canonical_state(self):
        """The logical ring state, id-ordered and representation-free.

        ``(id, successor-tuple, finger-tuple)`` per live member, decoded
        from the numpy arrays.  Two stores are equivalent iff their
        canonical states are equal -- slot numbering and free-list
        history are representation detail.
        """
        return tuple(
            (node_id, tuple(self.succs_at(slot)), tuple(self.fingers_at(slot)))
            for node_id, slot in zip(self.ids_np.tolist(), self.order_np.tolist())
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
    if not snapshot.alive(entry_id):
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
    if len(targets) < NUMPY_MIN_BATCH:
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
    (no table, the lanes keep serving) when some finger or successor
    entry of a live row names a dead id: a dead id can sit inside an
    arc and split its targets between routes.  The
    rows are checked ``_ROUTE_CHUNK`` at a time, stopping at the first
    dead reference, and the arcs are routed by :func:`_route_arcs`, each
    with its own end id as its target.

    The key holds ``snapshot.patches``, which every row write and splice
    moves: a stabilization round that changes no row keeps the table.
    Building is array work over every routing row's entries (n rows of
    ``m`` fingers and the successor list on a perfect ring), so only
    the adapters' ``warm_lockstep`` calls this, never the request path.
    """
    if not snapshot.alive(entry_id):
        raise KeyError(f"entry node {entry_id} is not in the snapshot")
    key = _route_key(snapshot, entry_id, mode, rpc_latency, oneway_latency, timeout)
    if snapshot.route is not None and snapshot.route.key == key:
        return True
    snapshot.route = None
    if not _names_only_live_ids(snapshot):
        return False
    owner = _np.empty(snapshot.n, dtype=_np.int32)
    hops = _np.empty(snapshot.n, dtype=_np.int16)
    _route_arcs(
        snapshot, entry_id, hop_budget(snapshot.m), mode != "iterative", owner, hops
    )
    snapshot.route = RouteTable(key, owner, hops)
    return True


def _route_arcs(
    snapshot: RingSnapshot, entry_id: int, budget: int, recursive: bool, owner, hops
) -> None:
    """Route every arc of a certified snapshot, an interval at a time.

    :func:`_vector_frontier` moves one lookup per target; here a row is a
    node with the *interval* of arcs it still has to route, so the
    shared prefix of many routes is walked once.  Row ``(slot, lo,
    cnt)`` holds the targets ``ids[(lo + k) % n]`` for ``k < cnt``, all
    clockwise of its node and in increasing distance from it; every row
    of a round has taken the same number of hops.  Distances run
    ``1 .. 2^m``, a target equal to the node counting as the whole ring.

    Each round splits every row as :func:`~repro.dht.chord.node.route_step`
    splits its targets.  Those up to the successor are done.  The rest
    go to the highest-index entry strictly inside ``(node, target)``,
    indexing the successor list and then the fingers.  With the
    entries' distances ``D`` (unset or the node itself: ``2^m``) and
    their suffix minimum ``G(i) = min(D[i:])``, a target at distance
    ``d`` goes to the highest ``i`` with ``G(i) < d``, so entry ``i`` takes
    ``(G(i), G(i + 1)]``, nonempty only where ``G`` rises (there
    ``G(i) = D[i]``).  Every bound is the distance of a live id, so each
    part is a run of whole arcs, cut by one binary search.  Finished
    intervals (done, or out of budget as the lanes count it) are written
    straight into ``owner`` and ``hops``.
    """
    np = _np
    ids = snapshot.ids_np
    n = snapshot.n
    mask = (1 << snapshot.m) - 1
    table = snapshot.pos_table

    def put(lo, cnt, own, h):
        # owner/hops at positions lo .. lo + cnt - 1 (mod n) of each row.
        at = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        at += np.arange(len(at))
        at %= n
        owner[at] = np.repeat(own, cnt) if np.ndim(own) else own
        hops[at] = h

    first = (int(ids.searchsorted(entry_id)) + 1) % n
    rows = (np.array([snapshot.slot(entry_id)]), np.array([first]), np.array([n]))
    h = 0
    while True:
        if recursive and h > budget:  # checked on arrival
            put(rows[1], rows[2], 0, -1)
            return
        nxt = []
        for cut in range(0, len(rows[0]), _ROUTE_CHUNK):
            slot, lo, cnt = (a[cut : cut + _ROUTE_CHUNK] for a in rows)
            x = snapshot.slot_ids_np[slot]
            d_first = ((ids[lo] - x - 1) & mask) + 1
            d_last = ((ids[(lo + cnt - 1) % n] - x - 1) & mask) + 1
            succ = snapshot.succ_first_np[slot]
            d_succ = ((succ - x - 1) & mask) + 1
            at_succ = ids.searchsorted(succ)
            done = np.where(
                d_succ >= d_last, cnt, np.where(d_succ < d_first, 0, (at_succ - lo) % n + 1)
            )
            put(lo, done, at_succ, h)
            fwd = done < cnt
            if not recursive and h >= budget:  # checked before forwarding
                put(lo[fwd] + done[fwd], cnt[fwd] - done[fwd], 0, -1)
                continue
            if not fwd.any():
                continue
            slot, lo, cnt, done, x = slot[fwd], lo[fwd], cnt[fwd], done[fwd], x[fwd]
            dist = np.concatenate((snapshot.succ_mat[slot], snapshot.finger_mat[slot]), axis=1)
            unset = dist < 0
            dist -= x[:, None] + 1
            dist &= mask
            dist += 1
            dist[unset] = mask + 1
            g = np.minimum.accumulate(dist[:, ::-1], axis=1)[:, ::-1]
            # Entry i takes (max(G(i), done_to), min(G(i + 1), d_last)], where
            # done_to ends the done part (or precedes the row's first target).
            done_to = np.maximum(d_succ[fwd], d_first[fwd] - 1)
            left = np.maximum(g, done_to[:, None])
            d_last = d_last[fwd]
            g[:, :-1] = np.minimum(g[:, 1:], d_last[:, None])
            g[:, -1] = d_last
            r, i = np.nonzero(left < g)
            right = g[r, i]
            via = (x[r] + dist[r, i]) & mask
            del unset, dist, g, left
            # A part ends at the row's end or at the live id at its bound;
            # it begins where the row's previous part ended.
            ends = np.where(
                right == d_last[r],
                cnt[r],
                (ids.searchsorted((x[r] + right) & mask) - lo[r]) % n + 1,
            )
            begins = np.empty_like(ends)
            begins[1:] = ends[:-1]
            new_row = np.ones(len(r), dtype=bool)
            new_row[1:] = r[1:] != r[:-1]
            begins[new_row] = done[r[new_row]]
            if table is not None:
                via = table[via] - 1
            else:
                via = snapshot.order_np[ids.searchsorted(via)]
            nxt.append((via, (lo[r] + begins) % n, ends - begins))
        if not nxt:
            return
        rows = tuple(np.concatenate(parts) for parts in zip(*nxt))
        h += 1


def _route_key(snapshot, *inputs):
    return (snapshot.patches, *inputs)


def replay_key(view: WalkView | None, inputs: tuple) -> tuple | None:
    """The Chord adapters' ``replay_key()``: ``view`` and what an
    uncharged ``resolve_many`` reads besides it.

    ``inputs`` is the adapter's tuple of lookup inputs ``(entry_id,
    mode, rpc_latency, oneway_latency, timeout)`` (see
    :func:`resolve_lookups`).  The view comes first, to be compared by
    identity: it is a new object whenever the store's write count
    (``patches``) moves.  The rest is the route
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
    """:func:`resolve_lookups` read from a current :class:`RouteTable`,
    with each owner's sorted position (:attr:`Lookups.position`).

    The arcs are searched in ascending target order: each search then
    starts at the last answer, and reads the id array front to back
    (as ``IdealDHT``'s kernel does); the answers are scattered back to
    the targets' order.
    """
    np = _np
    ids = snapshot.ids_np
    targets = np.asarray(targets, dtype=np.int64)
    order = targets.argsort()
    arc = np.empty(len(targets), dtype=np.int64)
    arc[order] = ids.searchsorted(targets[order])
    arc[arc == len(ids)] = 0  # past the last id: the wrapping arc 0
    hops = table.hops[arc].astype(np.int64)
    position = table.owner[arc].astype(np.int64)
    found = _clean_lookups(ids[position], hops, entry_id, hop_latency, recursive, position)
    sim = _sim_recursive if recursive else _sim_iterative
    for i in (hops < 0).nonzero()[0].tolist():  # failing arcs: replay exactly
        found._replace(
            i, sim(snapshot, entry_id, int(targets[i]), budget, hop_latency, timeout)
        )
    return found


# -- exact Python replay (slow lane) -----------------------------------------


def _sim_step(snapshot: RingSnapshot, node_id: int, target: int, excluded=()):
    """:func:`~repro.dht.chord.node.route_step` over the stored rows of
    live ``node_id``."""
    slot = snapshot.slot(node_id)
    return route_step(
        node_id, snapshot.succs_at(slot), snapshot.fingers_at(slot), target, excluded
    )


def _sim_iterative(
    snapshot: RingSnapshot,
    entry_id: int,
    target: int,
    budget: int,
    rpc_latency: float,
    timeout: float,
) -> LookupTrace:
    """:func:`~repro.dht.chord.node.iterative_lookup` from ``entry_id``,
    answered from the ring store.

    The responder charges each request as the live transport would: to a
    live node, one RPC, two messages and ``rpc_latency``, answered from
    its stored rows (a ping just succeeds); to a dead one, one RPC, one
    lost message, a timeout tick and ``timeout``, with
    :class:`~repro.sim.network.RpcTimeout` thrown in.  The entry's own
    steps are answered locally, uncharged.  A lookup that runs out of
    hops is reported with ``ok=False`` and the hops it reached.
    """
    lookup = iterative_lookup(
        entry_id, partial(_sim_step, snapshot, entry_id), target, budget
    )
    slot_of = snapshot.slot
    msgs = 0
    calls = 0
    touts = 0
    lat = 0.0
    try:
        request = lookup.send(None)
        while True:
            calls += 1
            node_id = request[0]
            slot = slot_of(node_id)
            if slot < 0:
                touts += 1
                msgs += 1
                lat += timeout
                request = lookup.throw(RpcTimeout(f"node {node_id} is dead"))
                continue
            msgs += 2
            lat += rpc_latency
            if request[1] == "ping":
                request = lookup.send(True)
                continue
            request = lookup.send(
                route_step(
                    node_id,
                    snapshot.succs_at(slot),
                    snapshot.fingers_at(slot),
                    target,
                    request[3],
                )
            )
    except StopIteration as stop:
        found = stop.value
        return LookupTrace(found.node_id, found.hops, msgs, lat, calls, touts, True)
    except LookupError_ as exc:
        return LookupTrace(-1, exc.hops, msgs, lat, calls, touts, False)


def _sim_recursive(
    snapshot: RingSnapshot,
    entry_id: int,
    target: int,
    budget: int,
    oneway_latency: float,
    timeout: float,
) -> LookupTrace:
    """Replay of the forwarded (recursive) chain.

    Mirrors ``lookup_recursive``/``forward_lookup``, each step the live
    node's :func:`~repro.dht.chord.node.route_step` over its stored
    rows: one charged one-way
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
        kind, nxt = _sim_step(snapshot, cur, target)
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
    owner, hops, entry_id: int, hop_latency: float, recursive: bool, position=None
) -> Lookups:
    """Lookups that met no dead node, charged as live.

    ``owner``/``hops`` are int64 arrays, ``position`` the owners' sorted
    positions where the caller has them.  Iterative: one RPC per hop
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
        position,
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

    cur = np.full(k, snapshot.slot(entry_id), dtype=np.int64)
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
        # route_step's closest preceding node: the highest finger
        # strictly inside (node, target), whole rows at once.  Reversing the column axis
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
        nxt = np.where(nxt == node, succ, nxt)  # route_step's self-fallback
        alive = alive_of(nxt)
        state[f_idx[~alive]] = _REPLAY  # dead hop: reroute (or fail) exactly
        live_idx = f_idx[alive]
        hops[live_idx] += 1
        cur[live_idx] = pos_of(nxt[alive])

    return state, owner, hops
