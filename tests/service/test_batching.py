"""Unit tests for the micro-batching shard worker's dispatch rule."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchSampler, ChordNetwork, IdealDHT
from repro.dht.api import CostSnapshot, PeerRef
from repro.service.batching import ShardWorker
from repro.service.dispatch import BatchDispatch, DispatchError, Execution, ServiceTimeModel
from repro.service.request import RequestStatus, SampleRequest
from repro.sim.kernel import Simulator


class FakeDispatch:
    """Returns synthetic peers; records the batch sizes it was asked for."""

    def __init__(self, latency_per_sample: float = 100.0):
        self.calls: list[int] = []
        self._latency = latency_per_sample

    def execute(self, k: int) -> Execution:
        self.calls.append(k)
        peers = tuple(PeerRef(peer_id=i, point=(i + 1) / (k + 1)) for i in range(k))
        return Execution(
            peers=peers, cost=CostSnapshot(latency=k * self._latency), trials=k
        )


def make_worker(sim, dispatch, **kwargs):
    responses = []
    kwargs.setdefault("time_model", ServiceTimeModel(dispatch_overhead=1.0, time_per_latency=0.001))
    worker = ShardWorker(0, sim, dispatch, sink=responses.append, **kwargs)
    return worker, responses


def submit(sim, worker, n, request_id_base=0):
    for i in range(n):
        worker.offer(SampleRequest(request_id=request_id_base + i, arrival_time=sim.now))


class FailingDispatch(FakeDispatch):
    """Raises DispatchError on the attempts numbered in ``fail_on``
    (1-based); ``calls`` records only the attempts that succeed."""

    def __init__(self, fail_on, latency_per_sample: float = 100.0):
        super().__init__(latency_per_sample)
        self._fail_on = set(fail_on)
        self._attempts = 0

    def execute(self, k: int) -> Execution:
        self._attempts += 1
        if self._attempts in self._fail_on:
            raise DispatchError("substrate churned")
        return super().execute(k)


class TestDispatchRule:
    def test_idle_shard_dispatches_a_lone_request_on_arrival(self):
        sim = Simulator()
        dispatch = FakeDispatch()
        worker, responses = make_worker(sim, dispatch, max_batch=32)
        submit(sim, worker, 1)
        assert dispatch.calls == [1]  # no wait for batchmates
        assert worker.busy and worker.queue_depth == 0
        assert sim.pending == 1  # only its completion is scheduled
        sim.run()
        (r,) = responses
        assert r.queue_latency == 0.0
        assert r.batch_size == 1

    def test_single_server_defers_next_flush_until_completion(self):
        sim = Simulator()
        dispatch = FakeDispatch(latency_per_sample=1000.0)  # service_time = 1 + k
        worker, responses = make_worker(sim, dispatch, max_batch=4)
        submit(sim, worker, 1)  # dispatched at t=0, completes at t=2
        submit(sim, worker, 6, request_id_base=1)  # arrive while busy: queue
        assert dispatch.calls == [1]
        assert worker.busy and worker.queue_depth == 6
        sim.run()
        # the queue leaves at the completion, capped at max_batch; the
        # two left over leave at the completion after
        assert dispatch.calls == [1, 4, 2]
        assert [r.request_id for r in responses] == list(range(7))
        assert [r.batch_size for r in responses] == [1, 4, 4, 4, 4, 2, 2]

    def test_queue_latency_measures_wait_not_service(self):
        sim = Simulator()
        dispatch = FakeDispatch(latency_per_sample=1000.0)
        worker, responses = make_worker(sim, dispatch, max_batch=4)
        submit(sim, worker, 1)
        submit(sim, worker, 6, request_id_base=1)
        sim.run()
        # each batch waited exactly the service of the batch before it
        assert [r.queue_latency for r in responses] == [0.0] + [2.0] * 4 + [7.0] * 2
        assert [r.service_latency for r in responses] == [2.0] + [5.0] * 4 + [3.0] * 2
        assert all(
            r.completion_time == r.queue_latency + r.service_latency for r in responses
        )

    def test_cooling_shard_holds_its_queue(self):
        sim = Simulator()
        dispatch = FailingDispatch(fail_on={1})
        worker, responses = make_worker(
            sim, dispatch, max_batch=8, max_retries=1, retry_backoff=5.0
        )
        submit(sim, worker, 1)  # fails at t=0: requeued, cooling for 5
        submit(sim, worker, 2, request_id_base=1)
        assert dispatch.calls == [] and not worker.busy
        assert worker.queue_depth == 3  # held, though nothing is in service
        sim.run(until=4.9)
        assert dispatch.calls == [] and worker.queue_depth == 3
        sim.run()
        assert dispatch.calls == [3]  # the retry sends the whole queue
        assert [r.request_id for r in responses] == [0, 1, 2]
        assert all(r.queue_latency == pytest.approx(5.0) for r in responses)

    def test_next_batch_dispatches_at_once_after_a_batch_fails(self):
        sim = Simulator()
        dispatch = FailingDispatch(fail_on={2}, latency_per_sample=1000.0)
        worker, responses = make_worker(
            sim, dispatch, max_batch=2, max_retries=0, retry_backoff=5.0
        )
        submit(sim, worker, 1)  # served t=0..2
        submit(sim, worker, 3, request_id_base=1)  # queue behind it
        sim.run(until=2.0)
        # at t=2 the batch of 2 fails outright; the last request
        # dispatches at that instant instead of waiting for anything
        assert worker.busy and worker.in_flight == 1 and worker.queue_depth == 0
        sim.run()
        by_id = {r.request_id: r for r in responses}
        assert [by_id[i].status for i in range(4)] == [
            RequestStatus.OK, RequestStatus.FAILED, RequestStatus.FAILED, RequestStatus.OK
        ]
        assert by_id[1].completion_time == by_id[2].completion_time == 2.0
        assert by_id[3].queue_latency == 2.0
        assert worker.failed_requests == 2

    def test_status_and_shard_stamps(self):
        sim = Simulator()
        worker, responses = make_worker(sim, FakeDispatch(), max_batch=1)
        submit(sim, worker, 1)
        sim.run()
        (r,) = responses
        assert r.status is RequestStatus.OK
        assert r.shard_id == 0
        assert r.peer is not None

    def test_load_signal_counts_queue_and_in_flight(self):
        sim = Simulator()
        worker, _ = make_worker(sim, FakeDispatch(), max_batch=2)
        submit(sim, worker, 3)
        assert worker.in_flight == 1 and worker.queue_depth == 2
        assert worker.load == 3
        sim.run()
        assert worker.load == 0

    def test_validates_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ShardWorker(0, sim, FakeDispatch(), max_batch=0)


def _ideal(seed: int):
    return IdealDHT.random(40, random.Random(seed))


def _chord(seed: int):
    return ChordNetwork.build(24, m=16, rng=random.Random(seed)).dht()


class TestGroupingMovesNoDraw:
    """How arrivals group into dispatches moves queueing, not draws: the
    engine consumes the scalar point stream exactly, so a shard's peers
    in request order, and its meter, are one ``sample_many`` call's."""

    @given(
        substrate=st.sampled_from(["ideal", "chord"]),
        seed=st.integers(min_value=0, max_value=2**31),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
            min_size=1, max_size=40,
        ),
        max_batch=st.sampled_from([1, 2, 32]),
    )
    @settings(max_examples=30, deadline=None)
    def test_served_peers_are_one_bulk_draw(self, substrate, seed, gaps, max_batch):
        make = {"ideal": _ideal, "chord": _chord}[substrate]
        served, reference = make(seed), make(seed)
        sim = Simulator()
        dispatch = BatchDispatch(BatchSampler(served, rng=random.Random(seed)))
        responses = []
        worker = ShardWorker(0, sim, dispatch, sink=responses.append, max_batch=max_batch)
        at = 0.0
        for request_id, gap in enumerate(gaps):
            at += gap
            sim.schedule_at(
                at,
                lambda rid=request_id: worker.offer(
                    SampleRequest(request_id=rid, arrival_time=sim.now)
                ),
            )
        sim.run()
        assert len(responses) == len(gaps)
        assert all(r.batch_size <= max_batch for r in responses)
        peers = [r.peer for r in sorted(responses, key=lambda r: r.request_id)]
        expected = BatchSampler(reference, rng=random.Random(seed)).sample_many(len(gaps))
        assert peers == expected
        assert served.cost.snapshot() == reference.cost.snapshot()



class TestServiceTimeModel:
    def test_overhead_charged_per_dispatch(self):
        # a coalesced batch pays overhead once; per-request serving of
        # the same k requests pays it k times, whatever the batch size
        tm = ServiceTimeModel(dispatch_overhead=2.0, time_per_latency=0.0)
        batch = Execution(peers=(), cost=CostSnapshot(), trials=0, dispatches=1)
        scalar = Execution(peers=(), cost=CostSnapshot(), trials=0, dispatches=8)
        assert tm.service_time(batch) == 2.0
        assert tm.service_time(scalar) == 16.0

    def test_latency_scaling(self):
        tm = ServiceTimeModel(dispatch_overhead=1.0, time_per_latency=0.5)
        ex = Execution(peers=(), cost=CostSnapshot(latency=10.0), trials=0)
        assert tm.service_time(ex) == pytest.approx(6.0)
