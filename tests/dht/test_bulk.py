"""Tests for the bulk DHT interface: charge_bulk, h_many, the flat
point array, and the ChordDHT per-call fallback."""

from __future__ import annotations

import random

import pytest

from repro.dht.api import NUMPY_MIN_BATCH, BulkDHT, CostMeter, CostSnapshot, PeerRef
from repro.dht.chord import ChordNetwork
from repro.dht.ideal import IdealDHT


class TestChargeBulk:
    def test_accumulates_all_fields(self):
        meter = CostMeter()
        meter.charge_bulk(h_calls=3, next_calls=7, messages=40, latency=12.5)
        snap = meter.snapshot()
        assert snap == CostSnapshot(h_calls=3, next_calls=7, messages=40, latency=12.5)

    def test_defaults_are_noop(self):
        meter = CostMeter()
        meter.charge_bulk()
        assert meter.snapshot() == CostSnapshot()

    def test_equivalent_to_per_call_charges(self):
        per_call = CostMeter()
        for _ in range(5):
            per_call.charge_h(messages=9, latency=9.0)
        for _ in range(11):
            per_call.charge_next()
        bulk = CostMeter()
        bulk.charge_bulk(h_calls=5, next_calls=11, messages=5 * 9 + 11, latency=5 * 9.0 + 11.0)
        assert per_call.snapshot() == bulk.snapshot()


class TestIdealBulk:
    def test_satisfies_protocol(self, medium_dht):
        assert isinstance(medium_dht, BulkDHT)

    @pytest.mark.parametrize("batch", [5, 200])  # python and numpy paths
    def test_h_many_matches_scalar_h(self, batch):
        rng = random.Random(50)
        dht_a = IdealDHT.random(128, random.Random(51))
        dht_b = IdealDHT.from_points(dht_a.circle.points)
        xs = [1.0 - rng.random() for _ in range(batch)]
        assert dht_b.h_many(xs) == [dht_a.h(x) for x in xs]

    @pytest.mark.parametrize("batch", [5, 200])
    def test_h_many_cost_matches_scalar(self, batch):
        rng = random.Random(52)
        dht_a = IdealDHT.random(64, random.Random(53))
        dht_b = IdealDHT.from_points(dht_a.circle.points)
        xs = [1.0 - rng.random() for _ in range(batch)]
        for x in xs:
            dht_a.h(x)
        dht_b.h_many(xs)
        assert dht_a.cost.snapshot() == dht_b.cost.snapshot()
        assert dht_b.cost.h_calls == batch

    @pytest.mark.parametrize("batch", [5, 200])
    @pytest.mark.parametrize("bad", [0.0, 1.5, float("nan")])
    def test_h_many_validates_domain(self, medium_dht, batch, bad):
        with pytest.raises(ValueError):
            medium_dht.h_many([0.5] * (batch - 1) + [bad])

    def test_points_array_is_sorted_and_complete(self, medium_dht):
        pts = medium_dht.points_array()
        assert len(pts) == len(medium_dht)
        assert list(pts) == sorted(medium_dht.circle.points)

    def test_successor_of_index_wraps(self, medium_dht):
        n = len(medium_dht)
        assert medium_dht.successor_of_index(0) == medium_dht.peers[0]
        assert medium_dht.successor_of_index(n) == medium_dht.peers[0]
        assert medium_dht.successor_of_index(n + 3) == medium_dht.peers[3]

    def test_bulk_op_costs_match_model(self, medium_dht):
        hm, hl, nm, nl = medium_dht.bulk_op_costs()
        before = medium_dht.cost.snapshot()
        medium_dht.h(0.5)
        after_h = medium_dht.cost.snapshot() - before
        assert (after_h.messages, after_h.latency) == (hm, hl)
        before = medium_dht.cost.snapshot()
        medium_dht.next(medium_dht.any_peer())
        after_next = medium_dht.cost.snapshot() - before
        assert (after_next.messages, after_next.latency) == (nm, nl)

    def test_pure_python_bisect_path(self, medium_dht):
        """Below NUMPY_MIN_BATCH points, h_many is a ``bisect`` loop; it
        agrees with scalar h and with the numpy path, on exact peer
        points (ties) and on 1.0 (past the last peer) included."""
        pts = medium_dht.circle.points
        xs = [pts[0], pts[17], pts[-1], 1.0]
        rng = random.Random(54)
        xs += [1.0 - rng.random() for _ in range(NUMPY_MIN_BATCH - 1 - len(xs))]
        expected = [medium_dht.h(x) for x in xs]
        assert medium_dht.h_many(xs) == expected
        assert medium_dht.h_many(xs * 2)[: len(xs)] == expected  # numpy path


class TestChordFallback:
    def test_not_bulk_capable(self):
        # ChordDHT batches via the lockstep engine but deliberately does
        # not satisfy BulkDHT: a live overlay has no free flat point
        # array, and its per-lookup costs are measured, not unit-priced.
        net = ChordNetwork.build(8, m=16, rng=random.Random(60))
        assert not isinstance(net.dht(), BulkDHT)

    def test_h_many_charge_identical_to_per_call_loop(self):
        # deeper equivalence coverage lives in tests/dht/test_chord_batch.py
        net = ChordNetwork.build(16, m=16, rng=random.Random(61))
        dht_a = net.dht()
        dht_b = net.dht()
        rng = random.Random(62)
        xs = [1.0 - rng.random() for _ in range(20)]
        refs_bulk = dht_a.h_many(xs)
        refs_scalar = [dht_b.h(x) for x in xs]
        assert refs_bulk == refs_scalar
        # metered as if per call: one h charge per point
        assert dht_a.cost.h_calls == len(xs)

    def test_slots_on_hot_dataclasses(self):
        for obj in (PeerRef(peer_id=0, point=0.5), CostSnapshot()):
            assert not hasattr(obj, "__dict__")
