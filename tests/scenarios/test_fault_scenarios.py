"""Tests for the structured-outage scenario lab (mass-kill, partition)."""

from __future__ import annotations

import json

import pytest

from repro.scenarios import (
    FAULT_PRESETS,
    FaultScenarioSpec,
    fault_preset,
    run_fault_scenario,
)


def smoke_spec(**overrides) -> FaultScenarioSpec:
    """A seconds-scale configuration for CI."""
    defaults = dict(
        name="smoke",
        n=128,
        m=12,
        probes=24,
        recovery_round_budget=40,
        recovery_chunk=4,
    )
    defaults.update(overrides)
    return FaultScenarioSpec(**defaults)


class TestSpecValidation:
    def test_presets_are_wellformed(self):
        assert set(FAULT_PRESETS) == {"mass-failure", "partition-heal"}
        assert FAULT_PRESETS["mass-failure"].fault == "mass-kill"
        assert FAULT_PRESETS["partition-heal"].fault == "partition"

    def test_fault_preset_overrides(self):
        spec = fault_preset("mass-failure", backend="kademlia", n=300)
        assert (spec.backend, spec.n) == ("kademlia", 300)
        with pytest.raises(KeyError):
            fault_preset("meteor-strike")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"backend": "carrier-pigeon"},
            {"fault": "gamma-rays"},
            {"region": "blob"},
            {"partition_mode": "sideways"},
            {"n": 2},
            {"n": 1 << 13},  # does not fit in 2^12 ids
            {"kill_fraction": 1.0},
            {"partition_groups": 1},
            {"probes": 0},
            {"recovery_round_budget": 0},
            {"partition_duration": 0.0},
            {"retry_attempts": 0},
            {"retry_deadline": 0.0},
            {"retry_jitter": 1.0},
            {"retry_factor": 0.5},
            {"retry_base_delay": -1.0},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises((ValueError, KeyError)):
            smoke_spec(**overrides)

    def test_retry_policy_reflects_spec(self):
        spec = smoke_spec(retry_attempts=5, retry_base_delay=0.25, retry_jitter=0.2)
        policy = spec.retry_policy()
        assert (policy.attempts, policy.base_delay, policy.jitter) == (5, 0.25, 0.2)

    def test_spec_record_is_jsonable(self):
        json.dumps(smoke_spec().to_record())


class TestMassFailureRecovery:
    @pytest.mark.parametrize("backend", ["chord", "kademlia"])
    def test_recovers_to_oracle_correct_lookups(self, backend):
        result = run_fault_scenario(
            smoke_spec(fault="mass-kill", kill_fraction=0.4, backend=backend)
        )
        assert result.population_after_fault < result.population_start
        assert result.baseline.error_rate == 0.0
        assert result.recovered
        assert result.post.error_rate == 0.0  # 100% oracle-correct
        assert result.recovery_rounds is not None
        assert result.recovery_rounds <= 40

    def test_outage_is_actually_painful(self):
        # A 40% arc kill must wound lookups before repair runs: if the
        # outage window shows no damage the scenario is not measuring.
        result = run_fault_scenario(smoke_spec(fault="mass-kill", n=256))
        assert result.outage.error_rate > 0.0
        assert result.msgs_inflation_outage > 1.0


class TestPartitionHealing:
    @pytest.mark.parametrize("backend", ["chord", "kademlia"])
    def test_heals_back_to_one_overlay(self, backend):
        result = run_fault_scenario(
            smoke_spec(fault="partition", backend=backend, outage_rounds=3)
        )
        # Partitions crash nobody; the population is intact throughout.
        assert result.population_after_fault == result.population_start
        assert result.recovered
        assert result.post.error_rate == 0.0

    def test_fault_log_records_apply_and_revert(self):
        result = run_fault_scenario(smoke_spec(fault="partition"))
        phases = [entry["phase"] for entry in result.fault_log]
        assert phases == ["apply", "revert"]


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        # The acceptance contract: all charges (including failed
        # attempts and backoff) flow through seeded streams, so the
        # same spec replays to an identical record.
        spec = smoke_spec(fault="mass-kill", retry_jitter=0.1)
        first = run_fault_scenario(spec).to_record()
        second = run_fault_scenario(spec).to_record()
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second

    def test_seed_changes_the_run(self):
        # Different seeds pick different victims and probe points, so
        # the measured phases diverge (the plan itself is fixed).
        base = smoke_spec(fault="mass-kill")
        a = run_fault_scenario(base).to_record()
        b = run_fault_scenario(base.with_(seed=1)).to_record()
        assert a["phases"] != b["phases"]

    def test_record_is_jsonable(self):
        record = run_fault_scenario(smoke_spec(fault="mass-kill")).to_record()
        parsed = json.loads(json.dumps(record))
        assert parsed["recovered"] is True
        assert parsed["phases"]["post"]["error_rate"] == 0.0
        assert "rpc.retries" in parsed["counters"] or parsed["counters"]


class TestAsyncTransport:
    """The same scenarios rerun on the message-level transport."""

    def async_spec(self, **overrides):
        return smoke_spec(
            n=96, probes=16, recovery_round_budget=60, transport="async", **overrides
        )

    @pytest.mark.parametrize("backend", ["chord", "kademlia"])
    def test_mass_failure_recovers_on_the_message_plane(self, backend):
        result = run_fault_scenario(
            self.async_spec(fault="mass-kill", kill_fraction=0.4, backend=backend)
        )
        assert result.baseline.error_rate == 0.0
        assert result.recovered
        assert result.post.error_rate == 0.0
        # The async-only observables: recovery wall time on the sim
        # clock, and hop RTTs from actual per-leg latency draws.
        assert result.recovery_sim_time is not None
        assert result.recovery_sim_time > 0.0
        assert result.hop_latency["count"] > 0
        # UniformLatency(0.5, 1.5) twice per round trip
        assert 1.0 <= result.hop_latency["p50"] <= 3.0
        assert result.hop_latency["p50"] <= result.hop_latency["p99"] <= 3.0

    @pytest.mark.parametrize("backend", ["chord", "kademlia"])
    def test_partition_heals_on_the_message_plane(self, backend):
        result = run_fault_scenario(
            self.async_spec(fault="partition", backend=backend, outage_rounds=3)
        )
        assert result.population_after_fault == result.population_start
        assert result.recovered
        assert result.post.error_rate == 0.0

    def test_rerun_is_bit_identical(self):
        # Event-scheduled delivery must not cost determinism: latency
        # draws, loss dies, retries, and backoff events all ride seeded
        # streams, so the whole record replays exactly.
        spec = self.async_spec(fault="mass-kill", retry_jitter=0.1)
        first = run_fault_scenario(spec).to_record()
        second = run_fault_scenario(spec).to_record()
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second

    def test_sync_runs_leave_async_observables_empty(self):
        result = run_fault_scenario(smoke_spec(fault="mass-kill"))
        assert result.recovery_sim_time is None
        assert result.hop_latency == {}

    def test_record_is_jsonable_with_async_extras(self):
        record = run_fault_scenario(self.async_spec(fault="mass-kill")).to_record()
        parsed = json.loads(json.dumps(record))
        assert parsed["spec"]["transport"] == "async"
        assert parsed["recovery_sim_time"] > 0.0
        assert parsed["hop_latency"]["count"] > 0


#: What the lab reads on 8 small specs (n=64, m=10, 16 probes, a budget
#: of 40 rounds, seed 0): per phase (baseline, outage, post) the
#: ``(correct, wrong, failed, messages)``, then ``recovery_rounds``,
#: ``recovery_messages``, ``rpc.retries``, ``rpc.timeouts`` and, on the
#: async transport, ``recovery_sim_time`` and the hop-latency count.  A
#: rerun check passes a drift that happens in both runs; these do not.
PINNED_LAB = {
    ("sync", "chord", "mass-kill"): (
        ((16, 0, 0, 128), (5, 11, 0, 624), (16, 0, 0, 145)), 4, 2166, 0, 257, None,
    ),
    ("sync", "chord", "partition"): (
        ((16, 0, 0, 128), (5, 11, 0, 692), (16, 0, 0, 132)), 4, 4762, 0, 419, None,
    ),
    ("sync", "kademlia", "mass-kill"): (
        ((16, 0, 0, 126), (16, 0, 0, 429), (16, 0, 0, 120)), 4, 9458, 2, 886, None,
    ),
    ("sync", "kademlia", "partition"): (
        ((16, 0, 0, 126), (12, 4, 0, 331), (16, 0, 0, 110)), 4, 16390, 2, 1742, None,
    ),
    ("async", "chord", "mass-kill"): (
        ((16, 0, 0, 128), (5, 11, 0, 624), (16, 0, 0, 145)), 4, 2166, 0, 428,
        (2125.069820309068, 414),
    ),
    ("async", "chord", "partition"): (
        ((16, 0, 0, 128), (16, 0, 0, 140), (16, 0, 0, 132)), 4, 3500, 0, 4,
        (268.88144603025376, 255),
    ),
    ("async", "kademlia", "mass-kill"): (
        ((16, 0, 0, 126), (16, 0, 0, 409), (16, 0, 0, 120)), 4, 9446, 2, 838,
        (776.8965369645152, 268),
    ),
    ("async", "kademlia", "partition"): (
        ((16, 0, 0, 126), (16, 0, 0, 163), (16, 0, 0, 114)), 4, 16378, 1, 15,
        (159.2377649712197, 253),
    ),
}


@pytest.mark.parametrize("transport,backend,fault", sorted(PINNED_LAB))
def test_lab_reads_its_pinned_values(transport, backend, fault):
    result = run_fault_scenario(
        FaultScenarioSpec(
            name="pin",
            n=64,
            m=10,
            probes=16,
            recovery_round_budget=40,
            backend=backend,
            fault=fault,
            transport=transport,
        )
    )
    phases = tuple(
        (p.correct, p.wrong, p.failed, p.messages)
        for p in (result.baseline, result.outage, result.post)
    )
    counters = result.counters
    extras = None
    if transport == "async":
        extras = (result.recovery_sim_time, result.hop_latency["count"])
    assert (
        phases,
        result.recovery_rounds,
        result.recovery_messages,
        counters.get("rpc.retries", 0),
        counters.get("rpc.timeouts", 0),
        extras,
    ) == PINNED_LAB[transport, backend, fault]
