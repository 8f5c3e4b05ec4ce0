"""Health-aware routing and retry against *real* substrate liveness models.

The scripted-dispatch tests (``test_churn_service.py``) pin the shard
worker's failure state machine in isolation; these tests re-verify the
same behaviours -- dispatch failure detection, health flips, router
shedding, explicit FAILED termination, recovery after repair -- with
live message-level substrates underneath, parametrized over both
overlay families.  Chord and Kademlia fail differently (routing holes
in a successor ring vs truncated XOR censuses and stale buckets), and
the serving layer must be indifferent to which one is burning.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import BatchSampler
from repro.dht.chord.network import ChordNetwork
from repro.dht.kademlia.network import KademliaNetwork
from repro.service.batching import ShardWorker
from repro.service.core import SamplingService, build_load, build_service
from repro.service.dispatch import BatchDispatch
from repro.service.metrics import ServiceMetrics
from repro.service.request import RequestStatus, SampleRequest
from repro.service.router import ShardRouter
from repro.sim.kernel import Simulator

BACKENDS = ("chord", "kademlia")


def make_network(backend: str, n: int, seed: int, sim=None):
    rng = random.Random(seed)
    if backend == "chord":
        return ChordNetwork.build(n, m=16, rng=rng, sim=sim)
    return KademliaNetwork.build(n, m=16, k=6, rng=rng, sim=sim)


def crash_to_single_survivor(net) -> int:
    """Crash every node except the adapters' default entry (the min id)."""
    survivor = min(net.nodes)
    for node_id in [i for i in net.nodes if i != survivor]:
        net.crash_node(node_id)
    return survivor


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    return request.param


class TestServingOnLiveBackends:
    def test_factory_service_serves_all_requests(self, backend):
        service = build_service(
            n=32, shards=2, substrate=backend, seed=3, chord_m=16,
            kad_bits=16, kad_k=6, max_batch=8,
        )
        build_load(service, rate=2.0, total=40, seed=3).start()
        service.run()
        summary = service.summary()
        assert summary["completed"] == 40
        assert summary["failed"] == 0
        shards_used = {r.shard_id for r in service.completed}
        assert shards_used == {0, 1}

    def test_completed_peers_are_live_ring_members(self, backend):
        net = make_network(backend, 24, seed=4)
        service = SamplingService([net.dht()], seed=4, max_batch=4)
        for _ in range(12):
            service.submit()
        service.run()
        live = set(net.nodes)
        assert [r.status for r in service.responses] == [RequestStatus.OK] * 12
        assert all(r.peer.peer_id in live for r in service.completed)


def make_worker_on(net, *, seed: int, max_retries: int = 1, max_trials: int = 2):
    """A shard worker whose dispatch runs a real engine over ``net``.

    Build this while the overlay is *healthy* (Estimate-n runs at
    construction, like the service factory does), then crash the
    overlay.  The default ``max_trials=2`` keeps the rejection budget
    tiny so a substrate crashed down to one self-looping survivor
    exhausts it immediately (every walk laps the circle without hitting
    an assigned interval), surfacing the real SamplingError ->
    DispatchError churn path; recovery tests pass a budget large enough
    for healthy serving instead.
    """
    sim = Simulator()
    dht = net.dht()
    sampler = BatchSampler(dht, rng=random.Random(seed), max_trials=max_trials)
    metrics = ServiceMetrics(1)
    sink: list = []
    worker = ShardWorker(
        0,
        sim,
        BatchDispatch(sampler),
        metrics=metrics,
        sink=sink.append,
        max_batch=4,
        max_retries=max_retries,
        retry_backoff=2.0,
    )
    return sim, worker, metrics, sink


def offer(worker, sim, count):
    for i in range(count):
        worker.offer(SampleRequest(request_id=i, arrival_time=sim.now))


class TestRealDispatchFailures:
    def test_crashed_substrate_fails_batch_explicitly(self, backend):
        net = make_network(backend, 24, seed=5)
        sim, worker, metrics, sink = make_worker_on(net, seed=5)
        crash_to_single_survivor(net)
        offer(worker, sim, 4)
        sim.run()
        # the real substrate failure surfaced, was retried, then failed
        assert metrics.dispatch_failures >= 1
        assert [r.status for r in sink] == [RequestStatus.FAILED] * 4
        assert all(r.peer is None for r in sink)
        assert worker.failed_requests == 4

    def test_failure_marks_shard_unhealthy_and_router_sheds(self, backend):
        net = make_network(backend, 24, seed=6)
        sim, sick, metrics, sink = make_worker_on(net, seed=6, max_retries=0)
        crash_to_single_survivor(net)
        offer(sick, sim, 4)
        sim.run(until=1.5)  # failure processed; re-admission probe not yet due
        assert not sick.healthy

        healthy_net = make_network(backend, 24, seed=7)
        _, healthy, _, _ = make_worker_on(healthy_net, seed=7)
        healthy.shard_id = 1
        router = ShardRouter([sick, healthy], policy="round-robin")
        picks = {
            router.route(SampleRequest(request_id=i, arrival_time=0.0)).shard_id
            for i in range(4)
        }
        assert picks == {1}

    def test_retry_refresh_recovers_against_shrunken_population(self, backend):
        # A budget large enough for healthy serving: the crash makes the
        # *stale estimate* the failure (walks lap a nearly-empty circle),
        # and the worker's refresh-between-retries is what must fix it.
        net = make_network(backend, 24, seed=8)
        sim, worker, metrics, sink = make_worker_on(net, seed=8, max_trials=200)
        survivor = crash_to_single_survivor(net)
        offer(worker, sim, 4)
        sim.run()
        assert metrics.dispatch_failures >= 1  # the stale-params dispatch died
        # refresh re-estimated against the shrunken population and the
        # retried batch served from the survivor
        assert [r.status for r in sink] == [RequestStatus.OK] * 4
        assert all(r.peer.peer_id == survivor for r in sink)
        assert worker.healthy

        # repopulate and converge the overlay: serving follows the ring
        for _ in range(20):
            net.join_node()
        net.run_stabilization(6)
        offer(worker, sim, 4)
        sim.run()
        live = set(net.nodes)
        served = sink[4:]
        assert [r.status for r in served] == [RequestStatus.OK] * 4
        assert all(r.peer.peer_id in live for r in served)
