"""Tests for recursive (forwarded) Chord lookups vs the iterative mode."""

from __future__ import annotations

import random

import pytest

from repro import RandomPeerSampler
from repro.dht.chord import ChordNetwork
from repro.dht.chord.async_lookup import lookup_recursive_async
from repro.dht.chord.node import LookupError_
from repro.sim.async_net import drive
from repro.sim.network import ConstantLatency


@pytest.fixture
def net():
    return ChordNetwork.build(64, m=18, rng=random.Random(170))


class TestCorrectness:
    def test_recursive_agrees_with_iterative(self, net):
        rng = random.Random(171)
        it = net.dht(lookup_mode="iterative")
        rec = net.dht(lookup_mode="recursive")
        for _ in range(100):
            x = 1.0 - rng.random()
            assert it.h(x).peer_id == rec.h(x).peer_id

    def test_recursive_matches_oracle(self, net):
        rec = net.dht(lookup_mode="recursive")
        circle = net.to_circle()
        rng = random.Random(172)
        for _ in range(50):
            x = 1.0 - rng.random()
            assert rec.h(x).point == circle.successor(x)

    def test_unknown_mode_rejected(self, net):
        with pytest.raises(ValueError):
            net.dht(lookup_mode="quantum")

    def test_sampler_runs_in_recursive_mode(self, net):
        sampler = RandomPeerSampler(
            net.dht(lookup_mode="recursive"), rng=random.Random(173)
        )
        seen = {sampler.sample().peer_id for _ in range(100)}
        assert seen <= set(net.nodes)
        assert len(seen) > 20


class TestCostProfile:
    def _mean_h_cost(self, dht, draws=60, seed=174):
        rng = random.Random(seed)
        before = dht.cost.snapshot()
        for _ in range(draws):
            dht.h(1.0 - rng.random())
        delta = dht.cost.snapshot() - before
        return delta.messages / draws, delta.latency / draws

    def test_recursive_cheaper_than_iterative(self, net):
        it_msgs, it_lat = self._mean_h_cost(net.dht(lookup_mode="iterative"))
        rec_msgs, rec_lat = self._mean_h_cost(net.dht(lookup_mode="recursive"))
        # No per-hop reply leg and no owner liveness ping.
        assert rec_msgs < it_msgs
        assert rec_lat < it_lat

    def test_recursive_still_logarithmic(self):
        import math

        costs = {}
        for n in (32, 256):
            net = ChordNetwork.build(n, m=18, rng=random.Random(175))
            msgs, _ = self._mean_h_cost(net.dht(lookup_mode="recursive"))
            costs[n] = msgs
        assert costs[256] < 3.0 * costs[32]
        assert costs[256] <= 3.0 * math.log2(256)


class TestFailureBehaviour:
    def test_recursive_query_dies_on_dead_hop(self):
        """The trade-off: recursive mode cannot route around a casualty
        because the client never sees intermediate hops."""
        net = ChordNetwork.build(64, m=18, rng=random.Random(176))
        entry = net.nodes[min(net.nodes)]
        ids = net.sorted_ids()
        # Kill a far-side node and immediately look up a key it owned.
        victim = ids[len(ids) // 2]
        target_key = victim  # its own id: owned by it
        net.crash_node(victim)
        with pytest.raises(LookupError_):
            entry.lookup_recursive(target_key)
        # The iterative client, by contrast, routes to the live successor.
        result = entry.lookup(target_key)
        assert result.node_id in net.nodes

    def test_dead_owner_charges_a_full_timeout(self):
        """A stale successor pointer to a dead owner must not make the
        failed lookup cheaper than a successful one: the querier waits
        out its reply timer, so the giving-up branch charges one timeout
        tick and the full timeout interval (same model as _admit)."""
        net = ChordNetwork.build(64, m=18, rng=random.Random(178))
        ids = net.sorted_ids()
        victim = ids[len(ids) // 2]
        pred = ids[len(ids) // 2 - 1]
        net.crash_node(victim)
        t = net.transport
        elapsed_before = t.elapsed
        timeouts_before = t.metrics.counter("rpc.timeouts").value
        # The predecessor resolves the victim's own id locally ("done",
        # victim) without forwarding, so the only failure on this path
        # is the owner never answering the querier.
        with pytest.raises(LookupError_, match="never replied"):
            net.nodes[pred].lookup_recursive(victim)
        assert t.metrics.counter("rpc.timeouts").value == timeouts_before + 1
        assert t.elapsed == pytest.approx(elapsed_before + t.timeout)

    def test_budget_exhaustion(self):
        net = ChordNetwork.build(16, m=18, rng=random.Random(177))
        entry = net.nodes[min(net.nodes)]
        ids = net.sorted_ids()
        far_target = (ids[-1] + 1) % (1 << 18)
        with pytest.raises(LookupError_):
            entry.lookup_recursive(far_target, max_hops=0)


class TestAsyncPendingTable:
    """The querier's table of pending async recursive lookups is made by
    its first such lookup and holds a token only while it is pending."""

    @staticmethod
    def _async_net(seed: int):
        return ChordNetwork.build(
            32, m=12, rng=random.Random(seed), latency=ConstantLatency(1.0),
            async_transport=True,
        )

    def test_sync_build_allocates_no_table(self, net):
        assert all(node._async_lookups is None for node in net.nodes.values())

    def test_resolved_lookup_leaves_nothing_pending(self):
        net = self._async_net(3)
        ids = net.sorted_ids()
        querier = net.nodes[ids[0]]
        result = drive(net.sim, lookup_recursive_async(querier, ids[16] - 1))
        assert result.node_id == ids[16]
        assert querier._async_lookups == {}
        # only the querier made a table
        assert [n for n in net.nodes.values() if n._async_lookups is not None] == [querier]

    def test_expired_lookup_fails_and_leaves_nothing_pending(self):
        net = self._async_net(3)
        ids = net.sorted_ids()
        querier = net.nodes[ids[0]]
        # a zero hop budget stops the chain at its first forward
        future = lookup_recursive_async(querier, ids[16] - 1, max_hops=0)
        with pytest.raises(LookupError_, match="no answer"):
            drive(net.sim, future)
        assert querier._async_lookups == {}

    def test_chain_lost_to_churn_expires(self):
        net = self._async_net(4)
        ids = net.sorted_ids()
        querier = net.nodes[ids[0]]
        future = lookup_recursive_async(querier, ids[16] - 1)
        net.sim.run_for(0.5)  # the first forward is on the wire
        for node_id in ids[1:]:
            net.crash_node(node_id)
        with pytest.raises(LookupError_, match="no answer"):
            drive(net.sim, future)
        assert querier._async_lookups == {}
