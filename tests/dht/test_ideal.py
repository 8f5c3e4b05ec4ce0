"""Tests for the ideal DHT oracle and the abstract cost interfaces."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import clockwise_distance
from repro.dht.api import NUMPY_MIN_BATCH, CostMeter, CostSnapshot, DHT, PeerRef
from repro.dht.ideal import CostModel, IdealDHT, LogCost

_unit_points = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_calls = st.one_of(
    st.tuples(st.just("h"), _unit_points),
    st.tuples(st.just("next"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("any_peer"), st.none()),
    # batches either side of the bisect / searchsorted crossover
    st.tuples(
        st.just("h_many"),
        st.sampled_from([0, 1, NUMPY_MIN_BATCH - 1, NUMPY_MIN_BATCH, 2 * NUMPY_MIN_BATCH]),
    ),
    st.tuples(st.just("successor_of_index"), st.integers(min_value=0, max_value=1_000)),
)


class TestCostMeter:
    def test_initial_state(self):
        meter = CostMeter()
        assert meter.snapshot() == CostSnapshot()

    def test_charge_h(self):
        meter = CostMeter()
        meter.charge_h(messages=10, latency=10.0)
        snap = meter.snapshot()
        assert snap.h_calls == 1
        assert snap.messages == 10
        assert snap.latency == 10.0

    def test_charge_next_defaults(self):
        meter = CostMeter()
        meter.charge_next()
        snap = meter.snapshot()
        assert snap.next_calls == 1
        assert snap.messages == 1
        assert snap.latency == 1.0

    def test_snapshot_diff(self):
        meter = CostMeter()
        meter.charge_h(5, 5.0)
        before = meter.snapshot()
        meter.charge_next()
        meter.charge_next()
        delta = meter.snapshot() - before
        assert delta.h_calls == 0
        assert delta.next_calls == 2
        assert delta.messages == 2

    def test_snapshot_add(self):
        a = CostSnapshot(h_calls=1, messages=3, latency=2.0)
        b = CostSnapshot(next_calls=2, messages=2, latency=2.0)
        c = a + b
        assert c == CostSnapshot(h_calls=1, next_calls=2, messages=5, latency=4.0)

    def test_reset(self):
        meter = CostMeter()
        meter.charge_h(3, 3.0)
        meter.reset()
        assert meter.snapshot() == CostSnapshot()


class TestLogCost:
    def test_log_cost_values(self):
        model = LogCost(1024)
        assert model.h_messages == 10
        assert model.h_latency == 10.0
        assert model.next_messages == 1

    def test_log_cost_small_n(self):
        assert LogCost(1).h_messages == 1
        assert LogCost(2).h_messages == 1


class TestIdealDHT:
    def test_satisfies_protocol(self, medium_dht):
        assert isinstance(medium_dht, DHT)

    def test_h_matches_circle_successor(self, medium_dht, rng):
        for _ in range(200):
            x = 1.0 - rng.random()
            peer = medium_dht.h(x)
            assert peer.point == medium_dht.circle.successor(x)

    def test_h_minimizes_clockwise_distance(self, medium_dht, rng):
        for _ in range(50):
            x = 1.0 - rng.random()
            peer = medium_dht.h(x)
            best = min(clockwise_distance(x, p) for p in medium_dht.circle)
            assert clockwise_distance(x, peer.point) == pytest.approx(best)

    def test_next_cycles_entire_ring(self, rng):
        dht = IdealDHT.random(20, rng)
        peer = dht.any_peer()
        seen = [peer.peer_id]
        for _ in range(19):
            peer = dht.next(peer)
            seen.append(peer.peer_id)
        assert sorted(seen) == list(range(20))
        assert dht.next(peer).peer_id == seen[0]  # full lap

    def test_next_moves_clockwise(self, medium_dht):
        peer = medium_dht.any_peer()
        nxt = medium_dht.next(peer)
        assert nxt.point == medium_dht.circle[peer.peer_id + 1]

    def test_costs_charged(self, rng):
        dht = IdealDHT.random(1024, rng)
        dht.h(0.5)
        dht.next(dht.any_peer())
        snap = dht.cost.snapshot()
        assert snap.h_calls == 1
        assert snap.messages == 10 + 1  # log2(1024) + 1
        assert snap.latency == 11.0

    def test_custom_cost_model(self, rng):
        model = CostModel(h_messages=3, h_latency=7.0, next_messages=2, next_latency=0.5)
        dht = IdealDHT.random(16, rng, cost_model=model)
        dht.h(0.5)
        dht.next(dht.any_peer())
        snap = dht.cost.snapshot()
        assert snap.messages == 5
        assert snap.latency == 7.5

    def test_from_points(self):
        dht = IdealDHT.from_points([0.3, 0.7])
        assert len(dht) == 2
        assert dht.h(0.5).point == 0.7

    def test_peers_sorted_and_indexed(self, medium_dht):
        for i, peer in enumerate(medium_dht.peers):
            assert peer.peer_id == i
            assert peer.point == medium_dht.circle[i]

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(_unit_points, min_size=1, max_size=300),
        script=st.lists(_calls, max_size=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_handles_are_made_on_first_use(self, points, script, seed):
        dht = IdealDHT.from_points(points)
        circle = dht.circle
        n = len(circle)
        assert dht._peers == [None] * n  # no handle before a peer is returned
        rng = random.Random(seed)
        seen: dict[int, PeerRef] = {}
        for op, arg in script:
            if op == "h":
                got, want = [dht.h(arg)], [circle.successor_index(arg)]
            elif op == "next":
                i = arg % n
                got, want = [dht.next(PeerRef(i, circle.points[i]))], [circle.next_index(i)]
            elif op == "any_peer":
                got, want = [dht.any_peer()], [0]
            elif op == "h_many":
                xs = [1.0 - rng.random() for _ in range(arg)]
                got, want = dht.h_many(xs), [circle.successor_index(x) for x in xs]
            else:
                got, want = [dht.successor_of_index(arg)], [arg % n]
            for ref, i in zip(got, want, strict=True):
                assert ref == PeerRef(i, circle.points[i])
                assert seen.setdefault(i, ref) is ref  # one object from its first return on
        assert [i for i, ref in enumerate(dht._peers) if ref is not None] == sorted(seen)
        eager = tuple(PeerRef(i, p) for i, p in enumerate(circle.points))
        assert dht.peers == eager
        assert dht.peers == eager  # a second read, from the same handles
        assert all(dht.peers[i] is ref for i, ref in seen.items())

    def test_peer_ref_ordering_and_hash(self):
        a = PeerRef(1, 0.5)
        b = PeerRef(2, 0.25)
        assert a < b  # ordered by id first
        assert len({a, b, PeerRef(1, 0.5)}) == 2
