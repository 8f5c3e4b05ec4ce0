"""The abstract DHT interface the paper's algorithms are written against.

King & Saia assume only two primitives:

- ``h(x)`` -- the peer whose peer point is closest in clockwise distance
  to the point ``x``, costing ``t_h`` latency and ``m_h`` messages
  (``O(log n)`` each in a standard DHT such as Chord);
- ``next(p)`` -- the peer clockwise-next after ``p``, costing ``O(1)``
  latency and messages.

Everything above the substrate (Estimate-n, Choose-Random-Peer, the
baselines) talks to this interface, so the same algorithm code runs
against the analytic :class:`~repro.dht.ideal.IdealDHT` oracle and the
message-level Chord simulator.

Bulk extension
--------------

:class:`BulkDHT` is an *optional* widening of the interface for
substrates that can answer many queries per call.  It exists for the
batch sampling engine (:mod:`repro.core.engine`), whose hot loop would
otherwise pay one Python method call, one :class:`PeerRef` allocation
and one meter update per trial.  A bulk-capable substrate provides:

- ``h_many(xs)`` -- ``h`` applied to a whole vector of points, metered
  with a single :meth:`CostMeter.charge_bulk` call;
- ``points_array()`` -- the sorted peer points as a flat indexable
  array of floats.  This is *raw substrate access*: reading it charges
  nothing, and a caller that resolves queries against it directly is
  responsible for charging ``cost.charge_bulk`` with the operation
  counts it logically performed (the batch engine does exactly this);
- ``successor_of_index(i)`` -- materialize the :class:`PeerRef` at
  sorted position ``i`` (wrapping), free of cost;
- ``bulk_op_costs()`` -- the per-operation ``(h_messages, h_latency,
  next_messages, next_latency)`` unit costs, so bulk callers can charge
  the meter amounts identical to what the per-call path would have.

Fallback semantics: substrates that cannot answer from a flat array
(the live Chord simulator) may still implement ``h_many`` -- the
:class:`~repro.dht.chord.ChordDHT` adapter resolves batches through a
lockstep replay engine that is charge-identical to a per-call loop --
but they do *not* satisfy :class:`BulkDHT` (no ``points_array`` /
``bulk_op_costs``: a live overlay has no free flat point array and its
per-lookup costs are measured, not unit-priced), and batch callers must
detect this (``isinstance(dht, BulkDHT)``) and keep the per-call
``h``/``next`` trial protocol, batched only through the optional hooks
below.  The semantics of both paths are identical; only the constant
factors differ.

Further *optional* per-call-substrate hooks, discovered by ``getattr``
rather than protocol check:

- ``resolve_many(xs) -> list[PeerRef | None]`` -- failure-tolerant
  batched ``h``: charge-identical to a loop of ``h`` calls with the
  substrate's retryable liveness error caught per point (``None`` marks
  a point whose lookup failed terminally).  The batch engine runs a
  trial on its own through ``resolve_many([s])``.
- ``resolve_many(xs, commit=False)`` and ``commit_lookups(lookups, lo,
  hi, totals, walks=None)`` -- a lookup in two steps, for substrates
  whose batched resolution has no side effects (the Chord adapters).
  With ``commit=False`` nothing is charged and no state changes: the
  call returns every point's lookup as
  :class:`~repro.dht.chord.batch.Lookups` rows, or ``None`` when it
  cannot be replayed exactly; a row with ``ok=False`` is a lookup the
  live path must re-execute (through the tolerant form above).
  ``commit_lookups`` then charges successful rows ``[lo, hi)`` of that
  resolution with the amounts, and the trace spans, of the ``h`` calls
  they replay, so a caller charges only the trials it keeps.  The
  caller passes the rows' sums as ``totals = (messages, latency,
  rpc_calls, rpc_timeouts, steps)`` -- the lookups' charge columns,
  then the walk steps below (0 without walks) -- and the adapter reads
  the rows themselves only while a tracer records, so a commit costs
  the same however the caller got its sums (the batch sampler keeps
  running totals per classified block; ``h_many`` sums its rows).
- ``walk_view()`` -- batched ``next`` walks.  Returns the ring as the
  clockwise walk sees it (the Chord adapters return a
  :class:`~repro.dht.chord.batch.WalkView`: points, gaps and certified
  runs per sorted position), or ``None`` when replaying walks could not
  be charge-identical.  The batch engine replays the walks a view
  certifies and charges them with their trials' lookups, passing their
  total ``steps`` in ``totals`` and ``walks = (view, starts, hops)``,
  parallel to the lookups, to ``commit_lookups`` -- walk ``j`` took
  ``hops[j]`` steps from ring position ``starts[j]`` -- with the
  amounts, and the trace spans, of that many ``next`` calls; every
  other walk goes through ``next``.
- ``replay_key() -> tuple | None`` -- what the two hooks above read:
  the current ``walk_view()`` first, then plain values (the Chord
  adapters give their tuple of lookup inputs -- entry peer, lookup
  mode and replay costs -- through
  :func:`repro.dht.chord.batch.replay_key`; the same tuple is the
  argument list of their uncharged resolve and the route table's key
  after its ring state); ``None`` when ``walk_view()`` is.  The
  batch engine classifies a block of trial points once and commits
  from it across calls for as long as the key holds, comparing the view
  by identity and the rest by equality, so an adapter must present a
  new key -- a new view object, or a changed value -- whenever anything
  its uncharged resolve or its walk view depends on changes.  An
  adapter offering ``replay_key`` offers the three hooks above.
- ``warm_lockstep() -> bool`` -- pre-build any batch-routing caches
  (snapshot, walk view, and the Chord adapters' route table: one
  lookup per owner arc, read by every batch while the ring stays as
  warmed) off the request path (free of charges and randomness);
  returns whether batched resolution is engaged.  The route table is
  built only here, never lazily.  ``BatchSampler.warm()`` calls it and
  then builds the engine's own walk windows for the warmed ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

__all__ = [
    "PeerRef",
    "PeerUnreachableError",
    "CostMeter",
    "CostSnapshot",
    "DHT",
    "BulkDHT",
]

#: Shared numpy-vs-pure-Python crossover: below this many items per
#: batch, numpy's per-call overhead exceeds its vectorization win, so
#: bulk implementations take their pure-Python path.
NUMPY_MIN_BATCH = 64


class PeerUnreachableError(Exception):
    """A substrate operation failed because peers were unreachable.

    The liveness escape hatch of the ``h``/``next`` contract: on a
    *dynamic* network an operation can fail transiently (the routing
    peer crashed, stabilization has not yet repaired the hole).  Every
    substrate raises a subclass of this type for such failures -- the
    Chord simulator's ``LookupError_`` is one -- so algorithm layers
    can retry with fresh randomness instead of pattern-matching on
    substrate-specific exceptions.  Permanent errors (bad arguments,
    empty network) stay ordinary ``ValueError``/``KeyError``.
    """


@dataclass(frozen=True, order=True, slots=True)
class PeerRef:
    """A handle on a peer: a stable identifier plus its peer point.

    ``point`` is the peer's location ``l(p)`` on the unit circle
    ``(0, 1]``.  A peer always knows its own point, and DHT responses
    carry the responding peer's point, so algorithms may read ``point``
    freely without extra messages.
    """

    peer_id: int
    point: float


@dataclass(frozen=True, slots=True)
class CostSnapshot:
    """Immutable view of a :class:`CostMeter`, usable for before/after diffs."""

    h_calls: int = 0
    next_calls: int = 0
    messages: int = 0
    latency: float = 0.0

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            h_calls=self.h_calls - other.h_calls,
            next_calls=self.next_calls - other.next_calls,
            messages=self.messages - other.messages,
            latency=self.latency - other.latency,
        )

    def __add__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            h_calls=self.h_calls + other.h_calls,
            next_calls=self.next_calls + other.next_calls,
            messages=self.messages + other.messages,
            latency=self.latency + other.latency,
        )


@dataclass
class CostMeter:
    """Accumulates the latency/message accounting of Theorem 7.

    ``latency`` is measured in abstract time units (one ``next`` costs 1
    by default); ``messages`` counts individual messages sent.  Substrates
    charge the meter from inside ``h``/``next``; callers snapshot around a
    region of interest and subtract.
    """

    h_calls: int = 0
    next_calls: int = 0
    messages: int = 0
    latency: float = 0.0

    def charge_h(self, messages: int, latency: float) -> None:
        """Record one ``h`` invocation costing the given amounts."""
        self.h_calls += 1
        self.messages += messages
        self.latency += latency

    def charge_next(self, messages: int = 1, latency: float = 1.0) -> None:
        """Record one ``next`` invocation (unit cost in a standard DHT)."""
        self.next_calls += 1
        self.messages += messages
        self.latency += latency

    def charge_bulk(
        self,
        *,
        h_calls: int = 0,
        next_calls: int = 0,
        messages: int = 0,
        latency: float = 0.0,
    ) -> None:
        """Record a whole batch of operations in one meter update.

        The amounts are the *totals* for the batch; callers compute them
        from :meth:`BulkDHT.bulk_op_costs` so the accumulated figures are
        identical to what per-call ``charge_h``/``charge_next`` would
        have produced.  This amortizes metering overhead to one Python
        call per batch instead of one per operation.
        """
        self.h_calls += h_calls
        self.next_calls += next_calls
        self.messages += messages
        self.latency += latency

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(self.h_calls, self.next_calls, self.messages, self.latency)

    def reset(self) -> None:
        self.h_calls = 0
        self.next_calls = 0
        self.messages = 0
        self.latency = 0.0


@runtime_checkable
class DHT(Protocol):
    """Structural interface required by the sampling algorithms."""

    cost: CostMeter

    def h(self, x: float) -> PeerRef:
        """The peer closest in clockwise distance to point ``x``."""
        ...

    def next(self, peer: PeerRef) -> PeerRef:
        """The clockwise successor of ``peer``."""
        ...

    def any_peer(self) -> PeerRef:
        """Some live peer, used as the local vantage point of an algorithm."""
        ...


@runtime_checkable
class BulkDHT(Protocol):
    """Optional widening of :class:`DHT` for batch-capable substrates.

    See the module docstring for the contract.  Detection is structural:
    ``isinstance(dht, BulkDHT)`` is how the batch engine decides between
    the vectorized fast path and the per-call fallback.
    """

    cost: CostMeter

    def h(self, x: float) -> PeerRef:
        ...

    def next(self, peer: PeerRef) -> PeerRef:
        ...

    def any_peer(self) -> PeerRef:
        ...

    def h_many(self, xs: Sequence[float]) -> list[PeerRef]:
        """``h`` applied to every point of ``xs``, metered as one batch."""
        ...

    def points_array(self) -> Sequence[float]:
        """The sorted peer points as a flat indexable float array (uncharged)."""
        ...

    def successor_of_index(self, i: int) -> PeerRef:
        """The :class:`PeerRef` at sorted position ``i % n`` (uncharged)."""
        ...

    def bulk_op_costs(self) -> tuple[int, float, int, float]:
        """Unit costs ``(h_messages, h_latency, next_messages, next_latency)``."""
        ...
