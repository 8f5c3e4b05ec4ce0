"""Event queue primitives for the discrete-event simulation kernel."""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled action, and the handle that cancels it.

    The queue orders events by ``(time, seq)``: two events at the same
    instant fire in scheduling order.
    """

    __slots__ = ("time", "seq", "action", "cancelled", "_queue")

    def __init__(
        self, time: float, seq: int, action: Callable[[], None], queue: "EventQueue | None"
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False
        #: The queue while the event sits in its heap, so :meth:`cancel`
        #: can report the tombstone for lazy compaction.  Cleared when
        #: the event is popped (a post-pop cancel is a no-op for queue
        #: accounting).
        self._queue = queue

    def __repr__(self) -> str:
        return f"Event(time={self.time!r}, seq={self.seq!r}, cancelled={self.cancelled!r})"

    def cancel(self) -> None:
        """Mark the event so the kernel skips it; cancelling is O(1)."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancel()


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Heap entries are ``(time, seq, event)`` tuples, so the heap compares
    plain floats and ints (``seq`` is unique: no comparison reaches the
    event).  Cancelled events stay in the heap as O(1) tombstones,
    normally discarded when they surface at the top.  A workload that
    cancels far-future events faster than it drains them (every async
    RPC whose reply lands before its timeout leaves one) would otherwise
    grow the heap without bound, so the queue counts its tombstones and
    lazily compacts -- filter plus re-heapify, O(heap) amortized against
    the cancellations that earned it -- whenever they outnumber the live
    events ``compact_factor`` to one.  The live count makes ``__len__``
    O(1) as a bonus.

    ``compact_factor`` (default 1.0) bounds the heap at roughly
    ``(1 + compact_factor) * len(self)`` entries: compaction fires once
    tombstones exceed ``compact_factor`` times the live count.  Raising
    it trades memory for fewer re-heapify passes under cancel-heavy
    load; it must be positive or tombstones would never be allowed to
    accumulate at all.
    """

    def __init__(self, compact_factor: float = 1.0) -> None:
        if compact_factor <= 0:
            raise ValueError("compact_factor must be positive")
        #: ``(time, seq, event)`` entries.  Compaction filters this list
        #: in place, so a caller may hold a reference to it.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        #: Cancelled events still sitting in the heap.
        self._tombstones = 0
        self.compact_factor = compact_factor

    def push(self, time: float, action: Callable[[], None]) -> Event:
        seq = next(self._seq)
        event = Event(time, seq, action, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Event | None:
        """Next non-cancelled event, or None when the queue is drained."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            event._queue = None
            if not event.cancelled:
                return event
            self._tombstones -= 1
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without removing it."""
        self._discard_tombstones()
        heap = self._heap
        return heap[0][0] if heap else None

    def _discard_tombstones(self) -> None:
        """Pop the cancelled events at the top of the heap."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._queue = None
            self._tombstones -= 1

    def _note_cancel(self) -> None:
        """Account one new tombstone, compacting when they dominate.

        The trigger compares tombstones against ``compact_factor`` times
        the live count (``len(self._heap) - self._tombstones``); at the
        default factor of 1.0 this is the classic ``tombstones > live``
        rule, i.e. ``raw_size`` at most ``2 * len(self)`` plus the one
        cancel that fires compaction.
        """
        self._tombstones += 1
        if self._tombstones > self.compact_factor * (
            len(self._heap) - self._tombstones
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and restore the heap invariant."""
        heap = self._heap
        for entry in heap:
            if entry[2].cancelled:
                entry[2]._queue = None
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._tombstones = 0

    @property
    def raw_size(self) -> int:
        """Heap entries including tombstones (bounded-growth invariant:
        at most ``compact_factor`` tombstones per live event, so
        ``raw_size`` never exceeds ``(1 + compact_factor) * len(self)``
        plus the one cancel that triggers compaction)."""
        return len(self._heap)

    def __len__(self) -> int:
        """Exact number of live (non-cancelled) events; O(1)."""
        return len(self._heap) - self._tombstones

    def __bool__(self) -> bool:
        return self.peek_time() is not None
