"""An idealized DHT oracle over a :class:`~repro.core.intervals.SortedCircle`.

This substrate answers ``h`` and ``next`` exactly (binary search over the
sorted peer points) while charging the *synthetic* costs of a standard
DHT: ``t_h = m_h = ceil(log2 n)`` for ``h`` and unit cost for ``next``.
It makes large-``n`` experiments cheap and keeps the analytic model of
the paper (peer points i.i.d. uniform on the circle) exact.

The oracle keeps its peer points as one sorted array and makes a peer's
:class:`~repro.dht.api.PeerRef` when it first returns that peer; from
then on it returns that same object.  A serve builds handles only for
the peers it returns, not one per peer of the ring.

The message-level counterpart is :class:`repro.dht.chord.ChordDHT`,
which realizes the same interface on a simulated Chord overlay.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as _np

from ..core.intervals import SortedCircle
from .api import NUMPY_MIN_BATCH, CostMeter, PeerRef

__all__ = ["CostModel", "LogCost", "IdealDHT"]


@dataclass(frozen=True)
class CostModel:
    """Synthetic per-operation costs charged by :class:`IdealDHT`.

    ``h_messages``/``h_latency`` default to ``ceil(log2 n)`` -- the
    standard-DHT figure the paper assumes -- and ``next`` costs one
    message and one time unit.
    """

    h_messages: int
    h_latency: float
    next_messages: int = 1
    next_latency: float = 1.0


def LogCost(n: int) -> CostModel:
    """The standard-DHT cost model: ``t_h = m_h = ceil(log2 n)``."""
    hops = max(1, math.ceil(math.log2(max(2, n))))
    return CostModel(h_messages=hops, h_latency=float(hops))


class IdealDHT:
    """Oracle DHT: exact ``h``/``next`` with synthetic cost accounting."""

    def __init__(self, circle: SortedCircle, cost_model: CostModel | None = None):
        self._circle = circle
        self._model = cost_model if cost_model is not None else LogCost(len(circle))
        # Slot i holds the handle of the i-th peer clockwise once it has
        # been returned (``_peer``), None before.
        self._peers: list[PeerRef | None] = [None] * len(circle)
        self._all: tuple[PeerRef, ...] | None = None  # ``peers``, once read
        # Flat array-backed storage for the bulk interface: peer points in
        # sorted order, so index arithmetic replaces object traversal.
        self._flat = array("d", circle.points)
        self._flat_np = _np.frombuffer(self._flat, dtype=_np.float64)
        self._flat_np.setflags(write=False)  # it's a view into _flat
        self.cost = CostMeter()

    @classmethod
    def random(cls, n: int, rng, cost_model: CostModel | None = None) -> "IdealDHT":
        """A ring of ``n`` peers at i.i.d. uniform points (the paper's model)."""
        return cls(SortedCircle.random(n, rng), cost_model=cost_model)

    @classmethod
    def from_points(cls, points: Iterable[float], **kwargs) -> "IdealDHT":
        return cls(SortedCircle(points), **kwargs)

    def _peer(self, i: int) -> PeerRef:
        """The handle of the peer at sorted position ``i``, made on first use."""
        ref = self._peers[i]
        if ref is None:
            ref = self._peers[i] = PeerRef(i, self._circle.points[i])
        return ref

    # -- DHT interface ---------------------------------------------------

    def h(self, x: float) -> PeerRef:
        """The peer closest clockwise to ``x`` (Chord's ``successor``)."""
        self.cost.charge_h(self._model.h_messages, self._model.h_latency)
        return self._peer(self._circle.successor_index(x))

    def next(self, peer: PeerRef) -> PeerRef:
        """The clockwise successor of ``peer``."""
        self.cost.charge_next(self._model.next_messages, self._model.next_latency)
        return self._peer(self._circle.next_index(peer.peer_id))

    def any_peer(self) -> PeerRef:
        """An arbitrary live peer, the algorithms' local vantage point."""
        return self._peer(0)

    # -- BulkDHT interface ------------------------------------------------

    def h_many(self, xs: Sequence[float]) -> list[PeerRef]:
        """``h`` over a whole vector of points, metered as one batch.

        Resolution is a vectorized ``searchsorted`` when the batch is
        large enough to amortize its call overhead, else a ``bisect``
        loop over the flat point array.  Both charge the meter once via
        :meth:`~repro.dht.api.CostMeter.charge_bulk` with totals
        identical to per-call :meth:`h`.
        """
        k = len(xs)
        peer = self._peer
        n = len(self._peers)
        if k >= NUMPY_MIN_BATCH:
            arr = _np.asarray(xs, dtype=_np.float64)
            ok = (arr > 0.0) & (arr <= 1.0)  # negated form would let NaN slip through
            if not ok.all():
                bad = float(arr[~ok][0])
                raise ValueError(f"point {bad!r} is outside the unit circle (0, 1]")
            idx = _np.searchsorted(self._flat_np, arr, side="left")
            idx[idx == n] = 0
            refs = [peer(i) for i in idx.tolist()]
        else:
            flat = self._flat
            refs = []
            for x in xs:
                if not 0.0 < x <= 1.0:
                    raise ValueError(f"point {x!r} is outside the unit circle (0, 1]")
                refs.append(peer(bisect_left(flat, x) % n))
        self.cost.charge_bulk(
            h_calls=k,
            messages=k * self._model.h_messages,
            latency=k * self._model.h_latency,
        )
        return refs

    def points_array(self) -> Sequence[float]:
        """Sorted peer points as a flat float array (raw, uncharged access)."""
        return self._flat_np

    def successor_of_index(self, i: int) -> PeerRef:
        """Materialize the peer at sorted position ``i % n`` (uncharged)."""
        slots = self._peers
        i %= len(slots)
        ref = slots[i]  # ``_peer`` inline: the engine calls this per drawn peer
        if ref is None:
            ref = slots[i] = PeerRef(i, self._circle.points[i])
        return ref

    def bulk_op_costs(self) -> tuple[int, float, int, float]:
        """Per-op unit costs for callers charging the meter in bulk."""
        m = self._model
        return (m.h_messages, m.h_latency, m.next_messages, m.next_latency)

    # -- oracle-only conveniences (not part of the DHT interface) --------

    @property
    def circle(self) -> SortedCircle:
        """The underlying analytic ring (oracle knowledge, free of cost)."""
        return self._circle

    @property
    def peers(self) -> Sequence[PeerRef]:
        """All peers in clockwise order (oracle knowledge, free of cost).

        The first read makes every handle not yet made; later reads
        return the same tuple.
        """
        if self._all is None:
            self._all = tuple(map(self._peer, range(len(self._peers))))
        return self._all

    def __len__(self) -> int:
        return len(self._circle)
