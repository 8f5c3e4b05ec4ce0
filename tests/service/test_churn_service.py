"""Churn-awareness of the serving layer: retries, failover, re-admission.

These tests drive the shard worker's failure state machine directly with
a scripted dispatch strategy (fails N times, then serves), so every
branch -- retry after backoff, health flip, router shedding, explicit
FAILED termination, re-admission on success -- is pinned without needing
a real churning substrate underneath.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SamplingError
from repro.dht.api import CostSnapshot, PeerRef, PeerUnreachableError
from repro.service.batching import ShardWorker
from repro.service.dispatch import BatchDispatch, DispatchError, Execution, ScalarDispatch
from repro.service.metrics import ServiceMetrics
from repro.service.request import RequestStatus, SampleRequest
from repro.service.router import ShardRouter
from repro.sim.kernel import Simulator


def _peer(i: int) -> PeerRef:
    return PeerRef(peer_id=i, point=(i + 1) / 64.0)


class ScriptedDispatch:
    """Raises DispatchError for the first ``failures`` executions."""

    def __init__(self, failures: int):
        self.failures = failures
        self.executions = 0
        self.refreshes = 0

    def execute(self, k: int) -> Execution:
        self.executions += 1
        if self.executions <= self.failures:
            raise DispatchError("scripted churn failure")
        return Execution(
            peers=tuple(_peer(i) for i in range(k)),
            cost=CostSnapshot(h_calls=k, next_calls=0, messages=k, latency=float(k)),
            trials=k,
            dispatches=1,
        )

    def refresh(self) -> bool:
        self.refreshes += 1
        return True


def make_worker(failures: int, *, max_retries: int = 2, metrics: ServiceMetrics | None = None):
    sim = Simulator()
    dispatch = ScriptedDispatch(failures)
    sink: list = []
    worker = ShardWorker(
        0,
        sim,
        dispatch,
        metrics=metrics,
        sink=sink.append,
        max_batch=4,
        max_retries=max_retries,
        retry_backoff=3.0,
    )
    return sim, dispatch, worker, sink


def offer(worker, sim, count: int):
    for i in range(count):
        worker.offer(SampleRequest(request_id=i, arrival_time=sim.now))


class TestRetryPath:
    def test_retries_then_serves(self):
        sim, dispatch, worker, sink = make_worker(failures=1)
        offer(worker, sim, 4)  # full batch -> immediate flush -> failure
        assert not worker.healthy  # failure marks the shard down
        sim.run()
        assert [r.status for r in sink] == [RequestStatus.OK] * 4
        assert worker.healthy  # success re-admits it
        assert worker.retries == 1
        assert worker.dispatch_failures == 1
        assert dispatch.refreshes == 1  # recovery re-estimates parameters

    def test_retry_waits_for_backoff(self):
        sim, dispatch, worker, sink = make_worker(failures=1)
        offer(worker, sim, 4)
        assert sink == []  # nothing served yet
        sim.run(until=2.9)  # backoff is 3.0: still cooling
        assert dispatch.executions == 1
        sim.run()
        assert dispatch.executions == 2
        assert [r.status for r in sink] == [RequestStatus.OK] * 4

    def test_requeued_batch_keeps_fifo_order(self):
        sim, dispatch, worker, sink = make_worker(failures=1)
        offer(worker, sim, 4)
        sim.run()
        assert [r.request_id for r in sink] == [0, 1, 2, 3]

    def test_metrics_count_dispatch_failures(self):
        metrics = ServiceMetrics(1)
        sim, dispatch, worker, sink = make_worker(failures=2, metrics=metrics)
        offer(worker, sim, 4)
        sim.run()
        assert metrics.dispatch_failures == 2
        assert metrics.failed == 0
        assert metrics.completed == 4


class TestFailurePath:
    def test_exhausted_retries_fail_batch_explicitly(self):
        metrics = ServiceMetrics(1)
        sim, dispatch, worker, sink = make_worker(
            failures=10, max_retries=2, metrics=metrics
        )
        offer(worker, sim, 4)
        sim.run()
        # 1 initial + 2 retries, then the batch is terminated
        assert dispatch.executions == 3
        assert [r.status for r in sink] == [RequestStatus.FAILED] * 4
        assert all(r.peer is None for r in sink)
        assert worker.failed_requests == 4
        assert metrics.failed == 4
        # half-open: after one further backoff the idle shard re-admits
        # itself so the router will offer it traffic again
        assert worker.healthy

    def test_failed_waits_land_in_their_own_histogram(self):
        metrics = ServiceMetrics(1)
        sim, dispatch, worker, sink = make_worker(
            failures=10, max_retries=1, metrics=metrics
        )
        offer(worker, sim, 4)
        sim.run()
        summary = metrics.summary()
        failed_wait = summary["latency"]["failed_wait"]
        assert failed_wait["count"] == 4
        assert failed_wait["max"] == pytest.approx(3.0)  # one backoff burned
        # success-only percentiles stay success-only
        assert summary["latency"]["total_latency"]["count"] == 0

    def test_failed_responses_carry_waiting_time(self):
        sim, dispatch, worker, sink = make_worker(failures=10, max_retries=1)
        offer(worker, sim, 4)
        sim.run()
        # one failure + one retry, each preceded by a 3.0 backoff at most;
        # the FAILED stamp happens at the second failure (t = 3.0)
        assert all(r.queue_latency == pytest.approx(3.0) for r in sink)
        assert all(r.service_latency == 0.0 for r in sink)

    def test_worker_recovers_after_failing_a_batch(self):
        sim, dispatch, worker, sink = make_worker(failures=3, max_retries=2)
        offer(worker, sim, 4)
        sim.run()
        assert [r.status for r in sink] == [RequestStatus.FAILED] * 4
        offer(worker, sim, 4)  # the substrate has "healed" (failures spent)
        sim.run()
        assert [r.status for r in sink[4:]] == [RequestStatus.OK] * 4
        assert worker.healthy


class TestHealthAwareRouting:
    def test_router_sheds_unhealthy_shards(self):
        sim = Simulator()
        healthy = ShardWorker(0, sim, ScriptedDispatch(0), max_batch=4)
        sick = ShardWorker(1, sim, ScriptedDispatch(99), max_batch=1,
                           max_retries=0, retry_backoff=5.0)
        sick.offer(SampleRequest(request_id=100, arrival_time=0.0))
        sim.run(until=1.0)  # failure processed; re-admission probe not yet due
        assert not sick.healthy
        router = ShardRouter([sick, healthy], policy="round-robin")
        picks = {router.route(SampleRequest(request_id=i, arrival_time=0.0)).shard_id
                 for i in range(4)}
        assert picks == {0}

    def test_idle_unhealthy_shard_readmits_after_cooldown(self):
        # a drained unhealthy shard gets no traffic from the router, so
        # it must re-admit itself (half-open) rather than stay
        # quarantined forever
        sim = Simulator()
        sick = ShardWorker(0, sim, ScriptedDispatch(1), max_batch=1,
                           max_retries=0, retry_backoff=5.0)
        sick.offer(SampleRequest(request_id=0, arrival_time=0.0))
        sim.run(until=1.0)
        assert not sick.healthy and sick.load == 0  # failed and drained
        sim.run()  # the probe fires at t=5.0
        assert sick.healthy
        sick.offer(SampleRequest(request_id=1, arrival_time=sim.now))
        sim.run()
        assert sick.healthy  # and the substrate has healed: traffic serves

    def test_router_degrades_to_full_set_when_all_unhealthy(self):
        sim = Simulator()
        workers = []
        for shard_id in range(2):
            w = ShardWorker(shard_id, sim, ScriptedDispatch(99), max_batch=1,
                            max_retries=0, retry_backoff=5.0)
            w.offer(SampleRequest(request_id=shard_id, arrival_time=0.0))
            workers.append(w)
        sim.run(until=1.0)  # failures processed; re-admission probes not yet due
        assert all(not w.healthy for w in workers)
        router = ShardRouter(workers, policy="round-robin")
        picks = [router.route(SampleRequest(request_id=i, arrival_time=0.0)).shard_id
                 for i in range(4)]
        assert picks == [0, 1, 0, 1]


class _UnreachableDHT:
    """A substrate whose peers are all gone."""

    def __init__(self):
        from repro.dht.api import CostMeter

        self.cost = CostMeter()

    def h(self, x: float) -> PeerRef:
        raise PeerUnreachableError("everyone left")

    def h_many(self, xs):
        return [self.h(x) for x in xs]

    def next(self, peer: PeerRef) -> PeerRef:
        raise PeerUnreachableError("everyone left")

    def any_peer(self) -> PeerRef:
        return _peer(0)


class TestDispatchErrorBoundary:
    def test_batch_dispatch_wraps_substrate_liveness_errors(self):
        from repro.core.engine import BatchSampler

        sampler = BatchSampler(_UnreachableDHT(), n_hat=8.0, max_trials=3)
        with pytest.raises(DispatchError):
            BatchDispatch(sampler).execute(2)

    def test_scalar_dispatch_wraps_sampling_errors(self):
        from repro.core.sampler import RandomPeerSampler

        sampler = RandomPeerSampler(_UnreachableDHT(), n_hat=8.0, max_trials=3)
        with pytest.raises(DispatchError):
            ScalarDispatch(sampler).execute(1)

    def test_dispatch_error_is_not_a_sampling_error(self):
        # the worker catches DispatchError only; the boundary must not leak
        assert not issubclass(DispatchError, SamplingError)
        assert not issubclass(DispatchError, PeerUnreachableError)
