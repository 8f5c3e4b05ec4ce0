"""Unit tests for the AdversaryState lie surface and the transport hook."""

import pytest

from repro.adversary import LIE_STRATEGIES, AdversaryState
from repro.dht.chord.node import LookupResult
from repro.sim.network import NullAdversary, RpcTransport


class _Node:
    """A minimal honest responder covering both backends' RPC shapes."""

    def __init__(self, node_id):
        self.node_id = node_id

    def lookup_step(self, target, excluded=None):
        return ("forward", (self.node_id + 1) % 256)

    def lookup(self, target):
        return LookupResult((target + 1) % 256, hops=3)

    def find_node(self, target, sender):
        return [(target + i) % 256 for i in range(4)]

    def find_clockwise(self, target, sender):
        return [(target + i) % 256 for i in range(4)]

    def get_successor(self):
        return (self.node_id + 1) % 256

    def get_successor_list(self):
        return [(self.node_id + i) % 256 for i in range(1, 5)]

    def get_predecessor(self):
        return (self.node_id - 1) % 256


def _transport(byzantine, strategy, honest=(3, 7)):
    t = RpcTransport()
    for node_id in sorted(set(byzantine) | set(honest)):
        t.register(node_id, _Node(node_id))
    adv = AdversaryState(m=8)
    for node_id in byzantine:
        adv.mark(node_id, strategy)
    t.install_adversary(adv)
    return t, adv


class TestMarking:
    def test_inactive_until_marked(self):
        adv = AdversaryState(m=8)
        assert not adv.active
        adv.mark(5)
        assert adv.active
        assert adv.is_byzantine(5)
        assert adv.byzantine_ids == frozenset({5})
        assert adv.colluders == (5,)

    def test_clear_restores_honesty(self):
        adv = AdversaryState(m=8)
        adv.mark(5)
        adv.mark(9, "census")
        adv.clear(5)
        assert adv.byzantine_ids == frozenset({9})
        adv.clear()
        assert not adv.active
        assert adv.colluders == ()

    def test_explicit_colluders_pin_the_clique(self):
        adv = AdversaryState(m=8)
        adv.set_colluders([40, 50])
        adv.mark(5)
        assert adv.colluders == (40, 50)

    def test_rejects_bad_strategy_and_ids(self):
        adv = AdversaryState(m=8)
        with pytest.raises(ValueError):
            adv.mark(5, "gaslight")
        with pytest.raises(ValueError):
            adv.mark(256)
        with pytest.raises(ValueError):
            AdversaryState(m=0)

    def test_describe_counts_strategies_and_lies(self):
        t, adv = _transport({5, 9}, "lookup")
        t.rpc(5, "lookup_step", 100)
        d = adv.describe()
        assert d["byzantine"] == 2
        assert d["by_strategy"] == {"lookup": 2}
        assert d["lies_told"] == 1
        assert d["lies_by_method"] == {"lookup_step": 1}


class TestDeflection:
    def test_deflect_is_clockwise_first_colluder(self):
        adv = AdversaryState(m=8)
        for c in (10, 100, 200):
            adv.mark(c)
        assert adv._deflect(5) == 10
        assert adv._deflect(10) == 10
        assert adv._deflect(11) == 100
        assert adv._deflect(201) == 10  # wraps

    def test_rewrite_is_deterministic(self):
        t, adv = _transport({5, 9}, "lookup")
        first = t.rpc(5, "lookup_step", 100)
        assert all(t.rpc(5, "lookup_step", 100) == first for _ in range(5))


class TestLookupLies:
    def test_lookup_step_claims_done_at_colluder(self):
        t, adv = _transport({5}, "lookup")
        status, owner = t.rpc(5, "lookup_step", 100)
        assert status == "done"
        assert owner in adv.byzantine_ids

    def test_full_lookup_deflects_node_id(self):
        t, adv = _transport({5}, "lookup")
        result = t.rpc(5, "lookup", 100)
        assert result.node_id in adv.byzantine_ids
        assert result.hops == 3  # the cost story is untouched

    def test_find_node_is_length_preserving(self):
        t, adv = _transport({5}, "lookup")
        out = t.rpc(5, "find_node", 100, 3)
        assert len(out) == 4
        assert out[0] in adv.byzantine_ids

    def test_maintenance_replies_stay_honest(self):
        # lie-in-lookup bends query routing only; stabilization
        # primitives answer truthfully so the ring still repairs.
        t, adv = _transport({5}, "lookup")
        assert t.rpc(5, "get_successor") == 6
        assert t.rpc(5, "get_successor_list") == [6, 7, 8, 9]

    def test_honest_nodes_unaffected(self):
        t, adv = _transport({5}, "lookup")
        assert t.rpc(3, "lookup_step", 100) == ("forward", 4)


class TestCensusLies:
    def test_even_ids_underreport(self):
        t, adv = _transport({6}, "census", honest=(3,))
        assert t.rpc(6, "get_successor_list") == [7]

    def test_odd_ids_overreport_colluders_first(self):
        t, adv = _transport({5, 9}, "census")
        out = t.rpc(9, "get_successor_list")
        assert out[:2] == [5, 9]
        assert len(out) >= 4

    def test_lookup_path_stays_honest(self):
        t, adv = _transport({5}, "census")
        assert t.rpc(5, "lookup_step", 100) == ("forward", 6)


class TestEclipseLies:
    def test_contact_replies_become_the_clique(self):
        t, adv = _transport({5, 9}, "eclipse")
        out = t.rpc(5, "find_node", 100, 3)
        assert set(out) <= adv.byzantine_ids

    def test_chord_maintenance_is_poisoned(self):
        t, adv = _transport({5, 9}, "eclipse")
        assert t.rpc(5, "get_predecessor") in adv.byzantine_ids
        assert set(t.rpc(5, "get_successor_list")) == adv.byzantine_ids


class TestTransportSurface:
    def test_null_adversary_is_transparent(self):
        t = RpcTransport()
        t.register(3, _Node(3))
        assert isinstance(t.adversary, NullAdversary)
        assert not t.adversary.active
        assert t.rpc(3, "lookup_step", 100) == ("forward", 4)

    def test_lies_cost_the_same_as_truths(self):
        honest = RpcTransport()
        honest.register(5, _Node(5))
        lying, _ = _transport({5}, "lookup", honest=())
        honest.rpc(5, "lookup_step", 100)
        lying.rpc(5, "lookup_step", 100)
        assert honest.messages_sent == lying.messages_sent
        assert honest.elapsed == lying.elapsed

    def test_oneway_replies_are_rewritten_too(self):
        t, adv = _transport({5}, "lookup")
        status, owner = t.oneway(5, "lookup_step", 100)
        assert status == "done"
        assert owner in adv.byzantine_ids

    def test_all_strategies_are_exposed(self):
        assert LIE_STRATEGIES == ("lookup", "census", "eclipse")


class TestLockstepRefusal:
    def test_chord_lockstep_refuses_active_adversary(self):
        import random

        from repro.dht.chord.network import ChordNetwork

        net = ChordNetwork.build(16, m=8, rng=random.Random(0))
        dht = net.dht()
        assert dht.lockstep_eligible()
        adv = AdversaryState(m=8)
        adv.mark(sorted(net.nodes)[0])
        net.transport.install_adversary(adv)
        assert not dht.lockstep_eligible()
        adv.clear()
        assert dht.lockstep_eligible()
