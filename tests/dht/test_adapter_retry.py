"""The live DHT adapters' lookup retries, decided by ``RetryPolicy.backoff``.

Both adapters charge each wait to the transport without waiting it, and
run their repair between attempts (Chord a stabilization round after
every failure, the last one included; Kademlia a stale-contact sweep of
the entry's buckets before each retry).  What a deadline weighs is the
failed attempts' lookup charges plus the waits taken -- never the
repair.  The fault lab reaches these loops through ``dht.h``; its
deadline check closes the module.
"""

from __future__ import annotations

import random

import pytest

from repro.dht.chord.network import ChordNetwork
from repro.dht.chord.node import ChordNode, LookupError_
from repro.dht.kademlia.network import KademliaNetwork
from repro.dht.kademlia.node import KademliaLookupError_
from repro.faults import FaultState, RetryPolicy
from repro.scenarios import FaultScenarioSpec, run_fault_scenario


def counter(transport, name: str) -> int:
    return transport.metrics.counters().get(name, 0)


class TestKademliaRetry:
    """An entry partitioned from every other peer.

    Each lookup from it times out on its 8 contacts (64.0 of charges);
    the stale sweeps before the retries charge 40.0, 16.0 and 8.0 and
    leave the entry alone in its table, so the fourth attempt answers
    from the entry itself.
    """

    def isolated(self, deadline=None, jitter=0.0):
        net = KademliaNetwork.build(64, m=12, k=8, rng=random.Random(1))
        faults = FaultState()
        net.transport.install_faults(faults)
        dht = net.dht(
            retry_policy=RetryPolicy(
                attempts=5, base_delay=1.0, factor=1.0, jitter=jitter, deadline=deadline
            ),
            retry_rng=random.Random(9),
        )
        entry = dht.entry_id
        faults.partition([[entry], [i for i in net.nodes if i != entry]])
        return dht, net.transport

    def test_retries_until_the_entry_answers_itself(self):
        dht, transport = self.isolated()
        assert dht.h(0.5).peer_id == dht.entry_id
        assert counter(transport, "rpc.retries") == 3
        assert counter(transport, "rpc.timeouts") == 32
        assert transport.elapsed == 3 * 64.0 + 3 * 1.0 + 40.0 + 16.0 + 8.0 == 259.0

    def test_jittered_waits_ride_the_seeded_stream(self):
        dht, transport = self.isolated(jitter=0.3)
        dht.h(0.5)
        assert counter(transport, "rpc.retries") == 3
        assert transport.elapsed == pytest.approx(258.684915, abs=1e-6)

    def test_ample_deadline_changes_nothing(self):
        dht, transport = self.isolated(deadline=1e6)
        dht.h(0.5)
        assert (counter(transport, "rpc.retries"), transport.elapsed) == (3, 259.0)

    @pytest.mark.parametrize("deadline", [1.0, 30.0])
    def test_deadline_gives_up_at_the_first_failure(self, deadline):
        dht, transport = self.isolated(deadline=deadline)
        with pytest.raises(KademliaLookupError_, match="failed after 1 attempts"):
            dht.h(0.5)
        assert counter(transport, "rpc.retries") == 0
        assert counter(transport, "rpc.timeouts") == 8
        assert transport.elapsed == 64.0

    def test_deadline_weighs_attempts_and_waits_not_the_sweeps(self):
        # Spent after two failures: 64 + 1 + 64 = 129 < 140, so the
        # adapter waits again (130); counting the 40.0 sweep would have
        # stopped it there.  The third failure has spent 194.
        dht, transport = self.isolated(deadline=140.0)
        with pytest.raises(KademliaLookupError_, match="failed after 3 attempts"):
            dht.h(0.5)
        assert counter(transport, "rpc.retries") == 2
        assert transport.elapsed == 3 * 64.0 + 2 * 1.0 + 40.0 + 16.0 == 250.0


class TestChordRetry:
    """The entry's first ``k`` lookups fail after charging 8.0 each.

    ``h`` seldom raises on a wounded ring (an entry cut off from every
    peer answers itself), so the failures are injected; the network's
    repair round is replaced by one that charges 100.0, which a deadline
    must not weigh.
    """

    FAIL = 8.0
    REPAIR = 100.0

    def wounded(self, monkeypatch, policy: RetryPolicy, k: int):
        net = ChordNetwork.build(32, m=10, rng=random.Random(3))
        transport = net.transport
        dht = net.dht(retry_policy=policy, retry_rng=random.Random(9))
        # One clean lookup of the probe point: what its last attempt costs.
        before = transport.elapsed
        dht.h(0.5)
        clean = transport.elapsed - before
        entry = dht.entry_id
        failures = [0]
        lookup = ChordNode.lookup

        def failing_lookup(node, target_id, max_hops=None):
            if node.node_id == entry and failures[0] < k:
                failures[0] += 1
                transport.charge_delay(self.FAIL)
                raise LookupError_("injected failure")
            return lookup(node, target_id, max_hops)

        repairs: list[float] = []  # the ledger as each repair round starts

        def repair():
            repairs.append(transport.elapsed - start)
            transport.charge_delay(self.REPAIR)

        monkeypatch.setattr(ChordNode, "lookup", failing_lookup)
        monkeypatch.setattr(net, "stabilize_round", repair)
        start = transport.elapsed
        return dht, transport, repairs, lambda: transport.elapsed - start - clean

    def test_success_takes_no_retry(self, monkeypatch):
        dht, transport, repairs, extra = self.wounded(monkeypatch, RetryPolicy(), k=0)
        dht.h(0.5)
        assert counter(transport, "rpc.retries") == 0
        assert repairs == []
        assert extra() == 0.0

    def test_each_failure_waits_then_repairs(self, monkeypatch):
        policy = RetryPolicy(attempts=3, base_delay=0.5, factor=2.0)
        dht, transport, repairs, extra = self.wounded(monkeypatch, policy, k=2)
        dht.h(0.5)
        assert counter(transport, "rpc.retries") == 2
        # Each wait is charged before the repair round that follows it.
        assert repairs == [8.0 + 0.5, 8.0 + 0.5 + 100.0 + 8.0 + 1.0]
        assert extra() == 2 * self.FAIL + 0.5 + 1.0 + 2 * self.REPAIR

    def test_gives_up_after_the_attempts_and_still_repairs(self, monkeypatch):
        policy = RetryPolicy(attempts=3, base_delay=0.5, factor=2.0)
        dht, transport, repairs, _ = self.wounded(monkeypatch, policy, k=3)
        before = transport.elapsed
        with pytest.raises(LookupError_, match="failed after 3 attempts"):
            dht.h(0.5)
        assert counter(transport, "rpc.retries") == 2
        assert len(repairs) == 3  # the failure that gives up repairs too
        assert transport.elapsed - before == 3 * self.FAIL + 0.5 + 1.0 + 3 * self.REPAIR

    def test_deadline_weighs_attempts_and_waits_not_the_repair(self, monkeypatch):
        # Flat wait 1, deadline 18: the first failure has spent 8 and
        # waits (weighing the 100.0 repair would stop it here); the
        # second has spent 17, and the next wait would reach 18.
        policy = RetryPolicy(attempts=5, base_delay=1.0, factor=1.0, deadline=18.0)
        dht, transport, repairs, _ = self.wounded(monkeypatch, policy, k=5)
        before = transport.elapsed
        with pytest.raises(LookupError_, match="failed after 2 attempts"):
            dht.h(0.5)
        assert counter(transport, "rpc.retries") == 1
        assert len(repairs) == 2
        assert transport.elapsed - before == 2 * self.FAIL + 1.0 + 2 * self.REPAIR


class TestFaultLabDeadline:
    """A 40% arc kill of a 64-peer Kademlia overlay: two outage probes
    need a retry, and a deadline of 1.0 forbids it on either transport."""

    def spec(self, transport: str, deadline=None) -> FaultScenarioSpec:
        return FaultScenarioSpec(
            name="deadline",
            backend="kademlia",
            fault="mass-kill",
            n=64,
            m=10,
            probes=16,
            recovery_round_budget=40,
            retry_deadline=deadline,
            transport=transport,
        )

    @pytest.mark.parametrize("transport", ["sync", "async"])
    def test_deadline_fails_the_probes_it_would_retry(self, transport):
        result = run_fault_scenario(self.spec(transport, deadline=1.0))
        assert result.counters.get("rpc.retries", 0) == 0
        assert (result.outage.correct, result.outage.failed) == (14, 2)

    @pytest.mark.parametrize("transport", ["sync", "async"])
    def test_without_a_deadline_the_probes_retry(self, transport):
        result = run_fault_scenario(self.spec(transport))
        assert result.counters.get("rpc.retries", 0) == 2
        assert (result.outage.correct, result.outage.failed) == (16, 0)
