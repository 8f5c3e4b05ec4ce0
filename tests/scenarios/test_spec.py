"""Spec validation, presets and sweep expansion."""

from __future__ import annotations

import json

import pytest

from repro.scenarios import PRESETS, ScenarioSpec, preset, sweep


class TestValidation:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", n=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", shards=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", requests=0)

    def test_rejects_small_id_space(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", n=100, chord_m=6)

    def test_rejects_bad_dynamics(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", churn_rate=-1.0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", crash_fraction=1.5)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", stabilize_interval=-2.0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", rate=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_retries": -1},
            {"retry_backoff": -1.0},
            {"retry_factor": 0.5},
            {"retry_jitter": 1.0},
            {"retry_jitter": -0.1},
        ],
    )
    def test_rejects_bad_retry_fields(self, overrides):
        # The spec builds its shard retry policy when it is made, so a
        # bad field fails here rather than when the scenario runs.
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", **overrides)

    def test_retry_policy_reflects_spec(self):
        policy = ScenarioSpec(
            name="x", max_retries=2, retry_backoff=1.5, retry_factor=2.0, retry_jitter=0.1
        ).retry_policy()
        assert (policy.attempts, policy.base_delay, policy.factor, policy.jitter) == (
            3, 1.5, 2.0, 0.1,
        )

    def test_with_revalidates(self):
        spec = ScenarioSpec(name="x")
        with pytest.raises(ValueError):
            spec.with_(crash_fraction=2.0)

    def test_churning_flag(self):
        assert not ScenarioSpec(name="x", churn_rate=0.0).churning
        assert ScenarioSpec(name="x", churn_rate=0.1).churning


class TestPresets:
    def test_canonical_regimes_exist(self):
        assert {"static", "smoke", "moderate", "crash-heavy"} <= set(PRESETS)

    def test_static_is_the_control(self):
        assert not PRESETS["static"].churning

    def test_preset_lookup_and_override(self):
        spec = preset("smoke", seed=9, requests=40)
        assert spec.seed == 9
        assert spec.requests == 40
        assert spec.name == "smoke"

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            preset("chaos-monkey")

    def test_records_are_json_ready(self):
        for spec in PRESETS.values():
            json.dumps(spec.to_record())


class TestSweep:
    def test_grid_is_the_full_product(self):
        base = ScenarioSpec(name="base")
        specs = sweep(base, churn_rates=(0.1, 0.2), crash_fractions=(0.0, 0.5, 1.0),
                      stabilize_intervals=(1.0, 4.0))
        assert len(specs) == 12
        combos = {(s.churn_rate, s.crash_fraction, s.stabilize_interval) for s in specs}
        assert len(combos) == 12

    def test_none_interval_keeps_base_cadence(self):
        base = ScenarioSpec(name="base", stabilize_interval=7.0)
        (spec,) = sweep(base, churn_rates=(0.1,))
        assert spec.stabilize_interval == 7.0

    def test_names_are_self_describing(self):
        base = ScenarioSpec(name="lab")
        (spec,) = sweep(base, churn_rates=(0.25,), crash_fractions=(0.9,),
                        stabilize_intervals=(0.0,))
        assert spec.name == "lab/churn0.25-crash0.9-stab0"


class TestBackendField:
    def test_default_backend_is_chord(self):
        assert ScenarioSpec(name="x").backend == "chord"

    def test_backends_constant_is_accepted(self):
        from repro.scenarios import BACKENDS

        for backend in BACKENDS:
            assert ScenarioSpec(name="x", backend=backend).backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", backend="pastry")

    def test_kademlia_knobs_validated(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", backend="kademlia", kad_k=0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", kad_alpha=0)

    def test_backend_lands_in_the_record(self):
        record = ScenarioSpec(name="x", backend="kademlia").to_record()
        assert record["backend"] == "kademlia"
