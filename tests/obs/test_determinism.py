"""Tracing must never perturb a seeded run: the zero-overhead-off bar.

Two layers of protection:

1. **Pinned outputs.**  The exact numbers below were first captured on
   the commit *before* the observability subsystem existed, and
   re-captured untraced when the batch engine stopped charging the
   trials past each round's last needed success, and again when idle
   shards stopped holding requests for batchmates, and again when each
   walk stopped once it could no longer win (on the static service ring
   both moved only timing and completion order: the same 200 draws, the
   same checksum).  An untraced run today
   must still reproduce them bit-for-bit -- instrumentation that shifted
   a single RNG draw or reassociated one float add would show up here.
2. **Traced == untraced.**  Running the same seed with a full tracer
   attached must produce the identical result record.  The tracer
   consumes no RNG and mirrors (never replaces) the float accumulations
   it observes, so the only output allowed to differ is the trace.

``benchmarks/bench_obs.py`` enforces the same identity in-run against a
monkeypatched pre-PR "bare" transport, plus the <=2% wall-clock bound.
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.scenarios import preset, run_scenario
from repro.service.core import build_load, build_service

# -- pre-PR pinned outputs (see module docstring) -----------------------

SCENARIO_PINS = {
    "chord": {
        "completed": 80,
        "failed": 0,
        "rejected": 0,
        "dispatch_failures": 0,
        "churn_events": 9,
        "sim_time": 82.1959601054048,
        "shard_messages": [15854, 9117],
        "shard_draws": [43, 37],
        "latency_p50": 1.8510958418753063,
        "latency_p95": 3.0106579733842196,
        "latency_mean": 1.8492833035589662,
    },
    "kademlia": {
        "completed": 80,
        "failed": 0,
        "rejected": 0,
        "dispatch_failures": 0,
        "churn_events": 9,
        "sim_time": 82.1959601054048,
        "shard_messages": [20341, 11296],
        "shard_draws": [43, 37],
        "latency_p50": 2.1438902779595566,
        "latency_p95": 3.309262423213923,
        "latency_mean": 2.095142710205515,
    },
}

SERVICE_PIN = {
    "completed": 200,
    "first_peers": [235, 183, 138, 190, 70, 92, 255, 30, 144, 147],
    "peer_checksum": 29872,
    "final_time": 92.76603047831544,
    "total_latency_mean": 2.052683805335275,
}


def _scenario_fields(result) -> dict:
    rec = result.to_record()
    return {
        "completed": rec["completed"],
        "failed": rec["failed"],
        "rejected": rec["rejected"],
        "dispatch_failures": rec["dispatch_failures"],
        "churn_events": rec["churn_events"],
        "sim_time": rec["sim_time"],
        "shard_messages": [s["messages"] for s in rec["shards"]],
        "shard_draws": [s["draws"] for s in rec["shards"]],
        "latency_p50": rec["latency"]["p50"],
        "latency_p95": rec["latency"]["p95"],
        "latency_mean": rec["latency"]["mean"],
    }


def _run(backend: str, tracer=None):
    spec = preset("smoke", backend=backend, n=24, requests=80, seed=5)
    return run_scenario(spec, tracer=tracer)


def _fingerprint(result) -> dict:
    rec = result.to_record()
    rec.pop("wall_seconds", None)
    return rec


def _service_fields(tracer=None) -> dict:
    kwargs = {} if tracer is None else {"tracer": tracer}
    service = build_service(n=300, shards=2, substrate="ideal", seed=11, **kwargs)
    load = build_load(service, rate=2.0, total=200, seed=11)
    load.start()
    service.run()
    completed = service.completed
    return {
        "completed": len(completed),
        "first_peers": [r.peer.peer_id for r in completed[:10]],
        "peer_checksum": sum(r.peer.peer_id for r in completed) % (1 << 31),
        "final_time": service.sim.now,
        "total_latency_mean": service.summary()["latency"]["total_latency"]["mean"],
    }


@pytest.mark.parametrize("backend", sorted(SCENARIO_PINS))
class TestScenarioPins:
    def test_untraced_matches_pre_instrumentation_pin(self, backend):
        assert _scenario_fields(_run(backend)) == SCENARIO_PINS[backend]

    def test_traced_run_is_bit_identical(self, backend):
        untraced = _run(backend)
        tracer = Tracer("all")
        traced = _run(backend, tracer=tracer)
        assert _fingerprint(traced) == _fingerprint(untraced)
        # and the tracer did actually record the run it shadowed
        assert tracer.summary()["requests_traced"] == untraced.completed
        assert tracer.summary()["spans"] > 0

    def test_sampling_policy_does_not_perturb(self, backend):
        tracer = Tracer("1-in-8")
        assert _scenario_fields(_run(backend, tracer=tracer)) == SCENARIO_PINS[backend]


class TestServicePin:
    def test_untraced_matches_pre_instrumentation_pin(self):
        assert _service_fields() == SERVICE_PIN

    def test_traced_run_is_bit_identical(self):
        tracer = Tracer("slowest:16")
        assert _service_fields(tracer=tracer) == SERVICE_PIN
        assert len(tracer.finished) == 16  # reservoir capacity enforced
