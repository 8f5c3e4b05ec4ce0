"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and an event queue.  Protocol
layers (Chord stabilization, churn processes, workload drivers) schedule
callbacks; ``run``/``run_for`` advance the clock to each event in
timestamp order.  The kernel is single-threaded and deterministic given
deterministic callbacks and RNG streams (see :mod:`repro.sim.rng`).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from .events import Event, EventQueue

__all__ = ["Simulator", "PeriodicTask"]


@dataclass
class PeriodicTask:
    """Handle for a recurring action; ``cancel()`` stops future firings."""

    interval: float
    action: Callable[[], None]
    _sim: "Simulator"
    _event: Event | None = None
    _stopped: bool = False

    def cancel(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    def _fire(self) -> None:
        if self._stopped:
            return
        self.action()
        if not self._stopped:
            self._event = self._sim.schedule(self.interval, self._fire)


class Simulator:
    """Deterministic single-threaded discrete-event simulator."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: float = 0.0
        self.events_executed: int = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        return self._queue.push(self.now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at an absolute timestamp."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past (time={time!r}, now={self.now!r})")
        return self._queue.push(time, action)

    def every(
        self, interval: float, action: Callable[[], None], first_delay: float | None = None
    ) -> PeriodicTask:
        """Run ``action`` every ``interval`` units until the task is cancelled."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        task = PeriodicTask(interval=interval, action=action, _sim=self)
        task._event = self.schedule(
            interval if first_delay is None else first_delay, task._fire
        )
        return task

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self.now = event.time
        self.events_executed += 1
        event.action()
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping at time ``until`` (inclusive)
        or after ``max_events`` events.

        Each due event is popped once: the loop reads the top of the
        queue's heap (which compaction filters in place), discards
        tombstones there, and pops a live event only when it is due.
        """
        queue = self._queue
        heap = queue._heap
        pop = heapq.heappop
        executed = 0
        while max_events is None or executed < max_events:
            if heap and heap[0][2].cancelled:
                queue._discard_tombstones()
            if not heap:
                if until is not None:
                    self.now = max(self.now, until)
                return
            time, _, event = heap[0]
            if until is not None and time > until:
                self.now = until
                return
            pop(heap)
            event._queue = None
            self.now = time
            self.events_executed += 1
            event.action()
            executed += 1

    def run_for(self, duration: float) -> None:
        """Advance the clock by ``duration`` units, executing due events."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.run(until=self.now + duration)

    @property
    def pending(self) -> int:
        """Number of live events still queued (O(queue))."""
        return len(self._queue)
