"""Unit-circle geometry underlying the King--Saia peer-sampling algorithms.

The paper models the DHT key space as a circle of unit circumference whose
points live in ``(0, 1]``.  All distances are measured *clockwise*:
``d(x, y) = y - x`` when ``y >= x`` and ``(1 - x) + y`` otherwise.  This
module provides that arithmetic, half-open clockwise intervals ``I(a, b]``,
and :class:`SortedCircle`, an immutable sorted collection of peer points
with the successor/arc queries every other layer builds on.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as _np

__all__ = [
    "normalize",
    "clockwise_distance",
    "clockwise_distances",
    "ring_gaps",
    "Interval",
    "SortedCircle",
]

#: Largest double strictly below 1.0: the clamp for a wrap-around
#: distance whose float sum rounds up to 1.0.
ONE_BELOW = math.nextafter(1.0, 0.0)


def normalize(x: float) -> float:
    """Map a real number onto the unit circle ``(0, 1]``.

    ``0`` and every integer map to ``1.0`` (the paper's circle excludes 0
    and includes 1, which are the same point).
    """
    r = math.fmod(x, 1.0)
    if r < 0.0:
        r += 1.0
    return 1.0 if r == 0.0 else r


def _check_point(x: float) -> float:
    if not 0.0 < x <= 1.0:
        raise ValueError(f"point {x!r} is outside the unit circle (0, 1]")
    return x


def clockwise_distance(x: float, y: float) -> float:
    """Clockwise distance ``d(x, y)`` along the unit circle.

    Follows the paper's definition exactly: ``y - x`` if ``y >= x`` else
    ``(1 - x) + y``.  The result lies in ``[0, 1)`` and ``d(x, x) == 0``.
    In the wrap branch the true distance is strictly below 1 but the
    float sum can round up to 1.0 when ``x - y`` is below one ulp; the
    result is clamped to keep the ``[0, 1)`` contract exact.
    """
    _check_point(x)
    _check_point(y)
    if y >= x:
        return y - x
    d = (1.0 - x) + y
    return d if d < 1.0 else ONE_BELOW


def clockwise_distances(xs, ys):
    """:func:`clockwise_distance` elementwise over float64 numpy arrays.

    Same branches and the same wrap clamp, so every element equals the
    scalar result bit for bit.  Points are not range-checked: callers
    validate them first.
    """
    d = _np.where(ys >= xs, ys - xs, (1.0 - xs) + ys)
    _np.minimum(d, ONE_BELOW, out=d)
    return d


def ring_gaps(points):
    """Clockwise distance from each ring position to the next.

    ``points`` are the peers' points in ring order (a float64 array);
    entry ``p`` is ``clockwise_distance(points[p], points[p + 1])``,
    wrapping after the last position.  These are exactly the steps the
    clockwise walk of Figure 1 adds, one per ``next``.
    """
    return clockwise_distances(points, _np.roll(points, -1))


@dataclass(frozen=True)
class Interval:
    """Half-open clockwise interval ``I(start, end]`` on the unit circle.

    ``start`` is excluded, ``end`` is included, matching the paper's
    ``I(a, b)`` notation ("interval (a, b] on the unit circle from point a
    clockwise to point b").  An interval with ``start == end`` is empty.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        _check_point(self.start)
        _check_point(self.end)

    @property
    def length(self) -> float:
        """Arc length ``|I|`` (zero when ``start == end``)."""
        return clockwise_distance(self.start, self.end)

    def contains(self, x: float) -> bool:
        """Whether ``x`` lies in ``(start, end]`` going clockwise.

        Implemented with direct comparisons (no float additions) so
        membership is exact even when ``x`` and the endpoints differ at
        the last ulp; equivalent to ``0 < d(start, x) <= length``.
        """
        _check_point(x)
        a, b = self.start, self.end
        if a < b:
            return a < x <= b
        if a > b:
            return x > a or x <= b
        return False  # empty interval

    def is_small(self, lam: float) -> bool:
        """The paper calls ``I`` *small* when ``|I| < lambda`` (else *big*)."""
        return self.length < lam


class SortedCircle:
    """An immutable, sorted multiset of peer points on ``(0, 1]``.

    This is the analytic view of a DHT ring: it answers the successor and
    arc queries needed by the algorithms and by the exact-assignment
    analysis, without any notion of network cost.  Duplicate points are
    permitted (they simply occupy the same location); with a random-oracle
    hash they occur with probability zero.
    """

    __slots__ = ("_points",)

    def __init__(self, points: Iterable[float]):
        pts = sorted(_check_point(p) for p in points)
        if not pts:
            raise ValueError("a SortedCircle needs at least one peer point")
        self._points: tuple[float, ...] = tuple(pts)

    @classmethod
    def random(cls, n: int, rng) -> "SortedCircle":
        """``n`` points i.i.d. uniform on ``(0, 1]`` (the paper's model)."""
        if n < 1:
            raise ValueError("need at least one peer")
        return cls(1.0 - rng.random() for _ in range(n))

    # -- basic container protocol -------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[float]:
        return iter(self._points)

    def __getitem__(self, i: int) -> float:
        return self._points[i % len(self._points)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortedCircle):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __repr__(self) -> str:
        return f"SortedCircle(n={len(self._points)})"

    @property
    def points(self) -> Sequence[float]:
        """The sorted peer points."""
        return self._points

    # -- ring queries ---------------------------------------------------

    def successor_index(self, x: float) -> int:
        """Index of ``h(x)``: the peer point closest clockwise from ``x``.

        A peer located exactly at ``x`` is its own successor
        (``d(x, x) == 0`` is minimal).
        """
        _check_point(x)
        i = bisect.bisect_left(self._points, x)
        return i % len(self._points)

    def successor(self, x: float) -> float:
        """The peer point ``l(h(x))``."""
        return self._points[self.successor_index(x)]

    def next_index(self, i: int) -> int:
        """Index of ``next(p_i)``, wrapping clockwise around the circle."""
        return (i + 1) % len(self._points)

    def arc(self, i: int) -> float:
        """Length of the predecessor arc ending at peer ``i``.

        This is ``d(l(prev(p_i)), l(p_i))`` -- the maximally peerless
        interval whose clockwise endpoint is peer ``i``.  With a single
        peer the arc is the whole circle (length 1).
        """
        n = len(self._points)
        if n == 1:
            return 1.0
        return clockwise_distance(self._points[(i - 1) % n], self._points[i % n])

    def arcs(self) -> list[float]:
        """All predecessor arcs, indexed by peer; they sum to 1."""
        return [self.arc(i) for i in range(len(self._points))]

    def forward_distance(self, i: int, hops: int) -> float:
        """Clockwise distance covered by ``hops`` applications of ``next``.

        Unlike ``clockwise_distance`` between the endpoints, this keeps
        counting across full laps, mirroring what a walking peer observes
        arc by arc (``hops >= n`` covers the circle more than once).
        """
        n = len(self._points)
        laps, rem = divmod(hops, n)
        d = float(laps)
        if rem:
            d += clockwise_distance(self._points[i % n], self._points[(i + rem) % n])
        return d

    def count_in(self, interval: Interval) -> int:
        """Number of peer points inside ``I(a, b]``."""
        a, b = interval.start, interval.end
        if a == b:
            return 0
        hi = bisect.bisect_right(self._points, b)
        lo = bisect.bisect_right(self._points, a)
        if b >= a:
            return hi - lo
        return (len(self._points) - lo) + hi
