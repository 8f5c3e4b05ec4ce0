"""End-to-end sampling-service tests: determinism, uniformity through
the full request path, backpressure accounting, and substrate mixing."""

from __future__ import annotations

import pytest

from repro.analysis.stats import chi_square_uniform
from repro.dht.ideal import IdealDHT
from repro.service import (
    RequestStatus,
    SamplingService,
    ServiceTimeModel,
    build_load,
    build_service,
    build_substrates,
)


def drive(service: SamplingService, *, rate: float, total: int, seed: int = 0) -> None:
    gen = build_load(service, rate=rate, total=total, seed=seed)
    gen.start()
    service.run()
    assert service.pending == 0


def run_fingerprint(seed: int, **kwargs):
    service = build_service(n=200, shards=2, seed=seed, **kwargs)
    drive(service, rate=2.0, total=400, seed=seed)
    trace = [
        (
            r.request_id,
            r.status.value,
            r.shard_id,
            None if r.peer is None else r.peer.peer_id,
            r.queue_latency,
            r.service_latency,
        )
        for r in service.responses
    ]
    return trace, service.metrics.registry.counters()


class TestDeterminism:
    def test_same_seed_same_assignments_and_counts(self):
        assert run_fingerprint(7) == run_fingerprint(7)

    def test_different_seed_differs(self):
        assert run_fingerprint(7)[0] != run_fingerprint(8)[0]

    def test_scalar_dispatch_deterministic_too(self):
        a = run_fingerprint(3, dispatch="scalar", max_batch=1, max_queue=64)
        b = run_fingerprint(3, dispatch="scalar", max_batch=1, max_queue=64)
        assert a == b

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded", "rendezvous"])
    def test_each_policy_deterministic(self, policy):
        assert run_fingerprint(5, policy=policy) == run_fingerprint(5, policy=policy)


class TestUniformityThroughService:
    def test_served_samples_are_uniform(self):
        # Two shards serving the *same* ring: the union of served draws
        # must be uniform over the n peers (chi-square through the full
        # loadgen -> router -> queue -> batch -> response path).
        n, total = 64, 8000
        service = build_service(
            n=n, shards=2, seed=13, replicate_rings=True,
            max_batch=64, max_queue=100_000,
        )
        drive(service, rate=50.0, total=total, seed=13)
        completed = service.completed
        assert len(completed) == total  # nothing rejected at this bound
        counts = [0] * n
        for r in completed:
            counts[r.peer.peer_id] += 1
        result = chi_square_uniform(counts)
        assert result.p_value > 0.01

    def test_replicated_rings_share_points(self):
        subs = build_substrates(32, 2, substrate="ideal", seed=4, replicate_rings=True)
        assert list(subs[0].points_array()) == list(subs[1].points_array())
        subs = build_substrates(32, 2, substrate="ideal", seed=4)
        assert list(subs[0].points_array()) != list(subs[1].points_array())


class TestBackpressure:
    def test_overload_rejects_explicitly_and_accounts_for_everything(self):
        total = 600
        service = build_service(
            n=200, shards=2, seed=21,
            max_batch=8, max_queue=16,
            time_model=ServiceTimeModel(dispatch_overhead=5.0, time_per_latency=0.01),
        )
        drive(service, rate=20.0, total=total, seed=21)  # far beyond capacity
        m = service.metrics
        assert m.rejected > 0  # overload was visible, not silently absorbed
        assert m.accepted + m.rejected == total  # every request accounted
        assert m.completed == m.accepted  # drained: all admitted served
        assert len(service.responses) == total
        rejected = [r for r in service.responses if r.status is RequestStatus.REJECTED]
        assert len(rejected) == m.rejected
        assert all(r.peer is None and r.batch_size == 0 for r in rejected)
        by_shard = sum(
            s["rejected"] for s in service.summary()["shards"].values()
        )
        assert by_shard == m.rejected

    def test_queue_bound_is_respected_momentarily(self):
        service = build_service(n=100, shards=1, seed=2, max_queue=4, max_batch=4)
        # submit a burst at t=0; the 5th+ must be rejected once load hits 4
        for _ in range(10):
            service.submit()
        assert all(s.load <= 4 for s in service.shards)
        assert service.metrics.rejected > 0


class TestDispatchModes:
    def test_scalar_and_batch_both_serve_all(self):
        for dispatch, max_batch in (("batch", 16), ("scalar", 1)):
            service = build_service(
                n=150, shards=2, seed=6, dispatch=dispatch, max_batch=max_batch,
                max_queue=10_000,
            )
            drive(service, rate=1.0, total=200, seed=6)
            assert service.metrics.completed == 200
            assert all(r.peer is not None for r in service.completed)

    def test_scalar_mode_is_per_request_regardless_of_max_batch(self):
        # "per-request dispatch" must pay dispatch overhead per request:
        # scalar shards never coalesce even when max_batch allows it
        service = build_service(
            n=150, shards=1, seed=6, dispatch="scalar", max_batch=32,
            max_queue=10_000,
        )
        drive(service, rate=5.0, total=100, seed=6)
        assert service.metrics.completed == 100
        assert all(r.batch_size == 1 for r in service.completed)
        assert service.shards[0].batches_served == 100

    def test_keep_responses_false_bounds_memory(self):
        service = build_service(
            n=150, shards=1, seed=6, max_queue=8, keep_responses=False,
        )
        drive(service, rate=50.0, total=400, seed=6)
        assert service.responses == []  # nothing retained...
        m = service.metrics
        assert m.rejected > 0
        assert m.accepted + m.rejected == 400  # ...but everything counted
        assert m.completed == m.accepted

    def test_batch_amortizes_dispatch_overhead(self):
        # same workload, same substrates: micro-batch must spend fewer
        # dispatches (batches) than per-request dispatch
        def batches(dispatch, max_batch):
            service = build_service(
                n=150, shards=1, seed=9, dispatch=dispatch, max_batch=max_batch,
                max_queue=10_000,
            )
            drive(service, rate=5.0, total=300, seed=9)
            assert service.metrics.completed == 300
            return sum(s["batches"] for s in service.summary()["shards"].values())

        assert batches("batch", 32) < batches("scalar", 1)


class TestSubstrates:
    def test_mixed_ideal_and_chord_serve_together(self):
        service = build_service(
            n=24, shards=2, substrate="mixed", seed=5, chord_m=16,
            max_batch=8, max_queue=10_000,
        )
        drive(service, rate=0.5, total=80, seed=5)
        assert service.metrics.completed == 80
        # round-robin: both the ideal and the chord shard served half
        assert service.metrics.shard_completed(0) == 40
        assert service.metrics.shard_completed(1) == 40

    def test_explicit_substrates_accepted(self):
        import random

        subs = [IdealDHT.random(64, random.Random(1)) for _ in range(3)]
        service = SamplingService(subs, seed=3, max_queue=1000)
        drive(service, rate=2.0, total=90, seed=3)
        assert service.metrics.completed == 90
        assert {r.shard_id for r in service.completed} == {0, 1, 2}


class TestSummary:
    def test_summary_shape(self):
        service = build_service(n=100, shards=2, seed=1, max_queue=1000)
        drive(service, rate=2.0, total=120, seed=1)
        s = service.summary()
        assert s["completed"] == 120
        for name in ("queue_latency", "service_latency", "total_latency"):
            lat = s["latency"][name]
            assert lat["count"] == 120
            assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert s["throughput"] == pytest.approx(120 / s["elapsed"])
        assert set(s["shards"]) == {0, 1}

    def test_latency_decomposition(self):
        service = build_service(n=100, shards=1, seed=1, max_queue=1000)
        drive(service, rate=2.0, total=50, seed=1)
        for r in service.completed:
            assert r.total_latency == pytest.approx(r.queue_latency + r.service_latency)
            assert r.queue_latency >= 0.0
            assert r.service_latency > 0.0  # dispatch overhead is never free
