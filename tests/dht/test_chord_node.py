"""Unit tests for ChordNode state machines (lookup, stabilize, repair)."""

from __future__ import annotations

import bisect
import random

import pytest

from repro.dht.chord.node import ChordNode, LookupError_
from repro.sim.network import RpcTimeout, RpcTransport


def make_ring(ids, m=10, slist=4):
    """Wire a perfect little ring by hand for protocol unit tests."""
    transport = RpcTransport(rng=random.Random(0))
    nodes = {}
    ordered = sorted(ids)
    for node_id in ordered:
        node = ChordNode(node_id, m, transport, successor_list_size=slist)
        nodes[node_id] = node
        transport.register(node_id, node)
    n = len(ordered)
    for i, node_id in enumerate(ordered):
        node = nodes[node_id]
        node.successors = [ordered[(i + k + 1) % n] for k in range(min(slist, n))]
        node.predecessor = ordered[(i - 1) % n]
        node.fingers = [
            ordered[bisect.bisect_left(ordered, (node_id + (1 << f)) % (1 << m)) % n]
            for f in range(m)
        ]
    return transport, nodes


class TestBasics:
    def test_point_property(self):
        transport = RpcTransport()
        node = ChordNode(512, 10, transport)
        assert node.point == 0.5

    def test_rejects_bad_successor_list_size(self):
        with pytest.raises(ValueError):
            ChordNode(1, 10, RpcTransport(), successor_list_size=0)

    def test_initial_self_loop(self):
        node = ChordNode(5, 10, RpcTransport())
        assert node.get_successor() == 5
        assert node.get_predecessor() is None


class TestNotify:
    def test_installs_first_predecessor(self):
        node = ChordNode(100, 10, RpcTransport())
        node.notify(50)
        assert node.predecessor == 50

    def test_adopts_closer_predecessor(self):
        node = ChordNode(100, 10, RpcTransport())
        node.notify(50)
        node.notify(80)
        assert node.predecessor == 80

    def test_ignores_farther_candidate(self):
        node = ChordNode(100, 10, RpcTransport())
        node.notify(80)
        node.notify(50)
        assert node.predecessor == 80

    def test_ignores_self(self):
        node = ChordNode(100, 10, RpcTransport())
        node.notify(100)
        assert node.predecessor is None


class TestLookup:
    def test_resolves_every_target(self):
        ids = [10, 200, 400, 600, 800, 1000]
        transport, nodes = make_ring(ids)
        start = nodes[10]
        for target in range(0, 1024, 37):
            result = start.lookup(target)
            expected = min((i for i in ids if i >= target), default=min(ids))
            assert result.node_id == expected

    def test_hop_count_bounded_by_log(self):
        rng = random.Random(4)
        ids = rng.sample(range(1 << 10), 64)
        transport, nodes = make_ring(ids)
        start = nodes[min(ids)]
        for target in range(0, 1024, 101):
            assert start.lookup(target).hops <= 12  # ~2 log2(64)

    def test_lookup_from_any_node_agrees(self):
        ids = [10, 200, 400, 600, 800, 1000]
        transport, nodes = make_ring(ids)
        for target in (0, 555, 1023):
            answers = {nodes[i].lookup(target).node_id for i in ids}
            assert len(answers) == 1

    def test_lookup_routes_around_dead_finger(self):
        ids = [10, 200, 400, 600, 800, 1000]
        transport, nodes = make_ring(ids)
        # Kill 600 without repair; a lookup for 590 from 10 must still
        # resolve (to 600's stale id or beyond) without raising.
        transport.deregister(600)
        result = nodes[10].lookup(990)
        assert result.node_id in ids

    def test_lookup_budget_exhaustion_raises(self):
        # A zero-hop budget forces failure whenever the answer is remote.
        ids = [10, 200, 400, 600, 800, 1000]
        transport, nodes = make_ring(ids)
        with pytest.raises(LookupError_):
            nodes[10].lookup(990, max_hops=0)

    def test_lookup_survives_stale_dead_pointers(self):
        # Successor and best finger both dead: the client must exclude the
        # casualties, fall back, and either resolve or raise cleanly.
        ids = [10, 200, 400, 600, 800, 1000]
        transport, nodes = make_ring(ids)
        transport.deregister(400)
        transport.deregister(600)
        result = nodes[10].lookup(590)
        assert result.node_id in ids

    def test_lookup_backs_down_past_a_silent_answerer(self, monkeypatch):
        # The route client -> a -> b takes two remote hops.  b is crashed,
        # so the client re-asks a -- and that re-ask times out too (a lost
        # reply).  The lookup excludes a as well and routes on from the
        # client itself, to the owner a correct ring gives.
        ids = sorted(random.Random(3).sample(range(1 << 10), 24))
        transport, nodes = make_ring(ids)
        client = ids[0]
        target, a, b = next(
            (target, a, b)
            for target in range(1 << 10)
            for kind_a, a in [nodes[client].lookup_step(target)]
            if kind_a == "forward" and a != client
            for kind_b, b in [nodes[a].lookup_step(target)]
            if kind_b == "forward" and b not in (a, client)
        )
        transport.deregister(b)
        asks_of_a = []
        deliver = transport.rpc_from

        def rpc_from(source, target_id, method, *args):
            if (source, target_id, method) == (client, a, "lookup_step"):
                asks_of_a.append(args)
                if len(asks_of_a) == 2:
                    raise RpcTimeout(f"lookup_step to node {a}: silent")
            return deliver(source, target_id, method, *args)

        monkeypatch.setattr(transport, "rpc_from", rpc_from)
        live = [i for i in ids if i != b]
        owner = live[bisect.bisect_left(live, target) % len(live)]
        assert nodes[client].lookup(target).node_id == owner
        assert [excluded for _, excluded in asks_of_a] == [(), (b,)]


class TestStabilize:
    def test_two_node_bootstrap_closes_ring(self):
        transport = RpcTransport(rng=random.Random(0))
        a = ChordNode(100, 10, transport)
        b = ChordNode(600, 10, transport)
        transport.register(100, a)
        transport.register(600, b)
        b.join(100)
        for _ in range(3):
            a.stabilize()
            b.stabilize()
        assert a.get_successor() == 600
        assert b.get_successor() == 100
        assert a.predecessor == 600
        assert b.predecessor == 100

    def test_adopts_interposed_node(self):
        ids = [100, 600]
        transport, nodes = make_ring(ids)
        c = ChordNode(300, 10, transport)
        transport.register(300, c)
        c.join(100)
        for _ in range(3):
            for node in (nodes[100], nodes[600], c):
                node.check_predecessor()
                node.stabilize()
        assert nodes[100].get_successor() == 300
        assert c.get_successor() == 600
        assert nodes[600].predecessor == 300

    def test_successor_list_repair_after_crash(self):
        ids = [10, 200, 400, 600]
        transport, nodes = make_ring(ids)
        transport.deregister(200)
        nodes[10].stabilize()
        assert nodes[10].get_successor() == 400

    def test_check_predecessor_clears_dead(self):
        ids = [10, 200]
        transport, nodes = make_ring(ids)
        transport.deregister(10)
        nodes[200].check_predecessor()
        assert nodes[200].predecessor is None

    def test_sole_survivor_self_loops(self):
        ids = [10, 200]
        transport, nodes = make_ring(ids)
        transport.deregister(200)
        nodes[10].check_predecessor()
        nodes[10].stabilize()
        assert nodes[10].get_successor() == 10


class TestGracefulLeave:
    def test_splices_both_neighbours(self):
        ids = [10, 200, 400, 600]
        transport, nodes = make_ring(ids)
        nodes[200].leave_gracefully()
        transport.deregister(200)
        assert nodes[10].get_successor() == 400
        assert nodes[400].predecessor == 10

    def test_hands_over_successor_list(self):
        ids = [10, 200, 400, 600]
        transport, nodes = make_ring(ids)
        nodes[200].leave_gracefully()
        transport.deregister(200)
        assert 200 not in nodes[10].successors
        assert nodes[10].successors[0] == 400


class TestFingers:
    def test_fix_all_fingers_matches_oracle(self):
        ids = [10, 200, 400, 600, 800, 1000]
        transport, nodes = make_ring(ids)
        node = nodes[10]
        node.fingers = [None] * node.m
        node.fix_all_fingers()
        for f in range(node.m):
            target = (10 + (1 << f)) % (1 << 10)
            expected = min((i for i in ids if i >= target), default=min(ids))
            assert node.fingers[f] == expected

    def test_fix_next_finger_round_robins(self):
        ids = [10, 600]
        transport, nodes = make_ring(ids)
        node = nodes[10]
        node.fingers = [None] * node.m
        node.fix_next_finger()
        node.fix_next_finger()
        assert node.fingers[0] is not None
        assert node.fingers[1] is not None
        assert node.fingers[2] is None
