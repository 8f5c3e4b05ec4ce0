"""Self-time arithmetic of the span recorder on a synthetic call tree.

Run with ``python -m pytest perfbench/test_spans.py`` from the repo root.
"""

from __future__ import annotations

import pytest

from perfbench.spans import SpanRecorder


class FakeClock:
    """A clock the test advances by hand, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


class Layers:
    """A tiny three-layer program: top calls mid twice, mid calls leaf."""

    def __init__(self, clock: FakeClock):
        self.clock = clock

    def top(self):
        self.clock.tick(1.0)
        self.mid(2.0)
        self.clock.tick(0.5)
        self.mid(3.0)
        self.clock.tick(0.25)
        return "done"

    def mid(self, leaf_time: float):
        self.clock.tick(0.5)
        self.leaf(leaf_time)
        self.clock.tick(0.5)

    def leaf(self, seconds: float):
        self.clock.tick(seconds)


def recorded_tree():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    for attr in ("top", "mid", "leaf"):
        rec.patch(Layers, attr, attr)
    try:
        with rec.span("root"):
            clock.tick(0.125)
            assert Layers(clock).top() == "done"
            clock.tick(0.125)
    finally:
        rec.restore()
    return rec


def test_self_time_is_duration_minus_direct_children():
    rows = recorded_tree().by_name()
    assert rows["leaf"] == {"count": 2, "total_s": 5.0, "self_s": 5.0}
    assert rows["mid"] == {"count": 2, "total_s": 7.0, "self_s": 2.0}
    assert rows["top"] == {"count": 1, "total_s": 8.75, "self_s": 1.75}
    assert rows["root"] == {"count": 1, "total_s": 9.0, "self_s": 0.25}


def test_self_times_add_up_to_the_root():
    rec = recorded_tree()
    assert [i for i, parent in enumerate(rec.parents) if parent < 0] == [0]
    assert sum(rec.self_times()) == pytest.approx(rec.by_name()["root"]["total_s"])


def test_parents_follow_the_call_nesting():
    rec = recorded_tree()
    names = [rec.names[c] for c in rec.codes]
    assert names == ["root", "top", "mid", "leaf", "mid", "leaf"]
    assert list(rec.parents) == [-1, 0, 1, 2, 1, 4]


def test_restore_puts_the_original_functions_back():
    original = Layers.__dict__["mid"]
    recorded_tree()
    assert Layers.__dict__["mid"] is original


def test_inherited_and_class_methods_are_wrapped_and_restored():
    class Base:
        def work(self):
            return 1

        @classmethod
        def make(cls):
            return cls()

    class Child(Base):
        pass

    rec = SpanRecorder(clock=FakeClock())
    rec.patch(Child, "work", "work")
    rec.patch(Base, "make", "make")
    try:
        assert isinstance(Child.make(), Child)
        assert Child().work() == 1
        assert Base().work() == 1  # the base class itself is untouched
    finally:
        rec.restore()
    assert "work" not in Child.__dict__
    assert isinstance(Base.__dict__["make"], classmethod)
    assert [rec.names[c] for c in rec.codes] == ["make", "work"]


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def boom():
        clock.tick(2.0)
        raise ValueError("boom")

    wrapped = rec.wrap(boom, "boom")
    with pytest.raises(ValueError):
        wrapped()
    assert rec.by_name()["boom"] == {"count": 1, "total_s": 2.0, "self_s": 2.0}
    assert rec._stack == [-1]
