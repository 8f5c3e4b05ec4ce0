"""Tests for the event queue and discrete-event kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator


class TestEventQueue:
    def test_fifo_at_same_time(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("a"))
        q.push(1.0, lambda: order.append("b"))
        q.pop().action()
        q.pop().action()
        assert order == ["a", "b"]

    def test_time_ordering(self):
        q = EventQueue()
        q.push(2.0, lambda: None)
        first = q.push(1.0, lambda: None)
        assert q.pop() is first

    def test_cancel_skipped(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        e2 = q.push(2.0, lambda: None)
        e1.cancel()
        assert q.pop() is e2
        assert q.pop() is None

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(3.0, lambda: None)
        e1.cancel()
        assert q.peek_time() == 3.0

    def test_len_counts_live_only(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        e1.cancel()
        assert len(q) == 1

    def test_bool_empty(self):
        q = EventQueue()
        assert not q
        q.push(1.0, lambda: None)
        assert q

    def test_tombstones_compact_lazily(self):
        # The async-transport pattern: every call arms a far-future
        # timeout that the reply cancels.  Without compaction the heap
        # keeps every tombstone until its timestamp surfaces; with it,
        # raw_size stays within a constant factor of the live count.
        q = EventQueue()
        live = [q.push(1_000_000.0 + i, lambda: None) for i in range(8)]
        for i in range(10_000):
            q.push(1_000.0 + i, lambda: None).cancel()
            assert q.raw_size <= 2 * len(q) + 1
        assert len(q) == 8
        # Heap entries are (time, seq, event) tuples.
        assert sorted(e.seq for _, _, e in q._heap if not e.cancelled) == sorted(
            e.seq for e in live
        )

    def test_default_compact_factor_pins_two_x_live_bound(self):
        # The documented contract at compact_factor=1.0: raw_size never
        # exceeds twice the live count plus the one cancel that fires
        # compaction, across an adversarial cancel-heavy schedule.
        q = EventQueue()
        assert q.compact_factor == 1.0
        for i in range(64):
            q.push(1_000_000.0 + i, lambda: None)
        worst = 0
        for i in range(5_000):
            q.push(1_000.0 + i, lambda: None).cancel()
            worst = max(worst, q.raw_size)
            assert q.raw_size <= 2 * len(q) + 1
        assert worst > len(q)  # tombstones really did accumulate
        assert len(q) == 64

    def test_compact_factor_is_configurable(self):
        # A looser factor admits proportionally more tombstones before
        # compacting (fewer re-heapify passes), but still bounds growth.
        q = EventQueue(compact_factor=4.0)
        for i in range(16):
            q.push(1_000_000.0 + i, lambda: None)
        worst = 0
        for i in range(2_000):
            q.push(1_000.0 + i, lambda: None).cancel()
            worst = max(worst, q.raw_size)
            assert q.raw_size <= 5 * len(q) + 1
        # the looser bound was actually used: growth beyond the 2x-live
        # ceiling that the default factor would have enforced
        assert worst > 2 * len(q) + 1
        assert len(q) == 16

    def test_compact_factor_rejects_nonpositive(self):
        import pytest

        with pytest.raises(ValueError):
            EventQueue(compact_factor=0)
        with pytest.raises(ValueError):
            EventQueue(compact_factor=-1.5)

    def test_compaction_preserves_order_and_len(self):
        q = EventQueue()
        events = [q.push(float(i), lambda i=i: i) for i in range(100)]
        for e in events[::2]:  # cancel every other one -> triggers compaction
            e.cancel()
        assert len(q) == 50
        times = []
        while True:
            event = q.pop()
            if event is None:
                break
            times.append(event.time)
        assert times == [float(i) for i in range(1, 100, 2)]

    def test_cancel_after_pop_does_not_corrupt_accounting(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.pop() is event
        event.cancel()  # already popped: a no-op for queue accounting
        assert len(q) == 1
        assert q.raw_size == 1


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.0, 5.0]
        assert sim.now == 5.0

    def test_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_for_advances_relative(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_for(3.0)
        assert sim.now == 3.0
        sim.run_for(2.0)
        assert sim.now == 5.0

    def test_max_events_cap(self):
        sim = Simulator()
        count = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda: count.append(1))
        sim.run(max_events=4)
        assert len(count) == 4

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(1.0, lambda: chain(3))
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_periodic_task_fires_and_cancels(self):
        sim = Simulator()
        ticks = []
        task = sim.every(2.0, lambda: ticks.append(sim.now))
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]
        task.cancel()
        sim.run(until=20.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_periodic_first_delay(self):
        sim = Simulator()
        ticks = []
        sim.every(5.0, lambda: ticks.append(sim.now), first_delay=1.0)
        sim.run(until=11.0)
        assert ticks == [1.0, 6.0, 11.0]

    def test_periodic_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            Simulator().every(0.0, lambda: None)

    def test_events_executed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class _Reference:
    """The kernel's contract as a sorted list: events fire in
    ``(time, scheduling order)``, ``run`` stops after ``max_events`` or at
    the first event past ``until``, and a cancelled event never fires."""

    def __init__(self):
        self.now = 0.0
        self.executed = 0
        self.seq = 0
        self.queue = []  # [time, seq, label, spawn, cancelled]
        self.fired = []

    def schedule_at(self, time, label, spawn):
        entry = [time, self.seq, label, spawn, False]
        self.seq += 1
        self.queue.append(entry)
        return entry

    def _next(self):
        live = [e for e in self.queue if not e[4]]
        return min(live, key=lambda e: (e[0], e[1])) if live else None

    def step(self):
        entry = self._next()
        if entry is None:
            return False
        self.queue.remove(entry)
        self.now = entry[0]
        self.executed += 1
        self.fired.append(entry[2])
        if entry[3] is not None:
            self.schedule_at(self.now + entry[3], entry[2] + 1000, None)
        return True

    def run(self, until=None, max_events=None):
        done = 0
        while max_events is None or done < max_events:
            entry = self._next()
            if entry is None:
                if until is not None:
                    self.now = max(self.now, until)
                return
            if until is not None and entry[0] > until:
                self.now = until
                return
            self.step()
            done += 1


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0])
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _TIMES, st.none() | _TIMES),
    st.tuples(st.just("schedule_at"), _TIMES, st.none() | _TIMES),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("step")),
    st.tuples(st.just("until"), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0, 10.0])),
    st.tuples(st.just("max_events"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("drain")),
)


class TestEventOrder:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_OPS, max_size=40))
    def test_actions_fire_in_time_then_scheduling_order(self, ops):
        # Equal times are common (the sampled offsets repeat), so ties
        # must break by scheduling order; an action may schedule a
        # follow-up, which joins the queue mid-run.
        sim, ref = Simulator(), _Reference()
        fired, handles, entries = [], [], []

        def action(label, spawn):
            def fire():
                fired.append(label)
                if spawn is not None:
                    sim.schedule(spawn, action(label + 1000, None))
            return fire

        for op in ops:
            kind = op[0]
            if kind in ("schedule", "schedule_at"):
                label = len(handles)
                offset, spawn = op[1], op[2]
                if kind == "schedule":
                    handles.append(sim.schedule(offset, action(label, spawn)))
                    entries.append(ref.schedule_at(ref.now + offset, label, spawn))
                else:
                    handles.append(sim.schedule_at(sim.now + offset, action(label, spawn)))
                    entries.append(ref.schedule_at(ref.now + offset, label, spawn))
            elif kind == "cancel" and handles:
                i = op[1] % len(handles)
                handles[i].cancel()
                entries[i][4] = True
            elif kind == "step":
                assert sim.step() == ref.step()
            elif kind == "until":
                until = ref.now + op[1]
                sim.run(until=until)
                ref.run(until=until)
            elif kind == "max_events":
                sim.run(max_events=op[1])
                ref.run(max_events=op[1])
            elif kind == "drain":
                sim.run()
                ref.run()
            assert fired == ref.fired
            assert sim.now == ref.now
            assert sim.events_executed == ref.executed
            assert sim.pending == sum(1 for e in ref.queue if not e[4])
