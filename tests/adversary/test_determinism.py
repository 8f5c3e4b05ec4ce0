"""Adversarial runs must be exactly reproducible: the lying-peer pins.

Same contract as ``tests/obs/test_determinism.py``, extended to the
adversary subsystem.  Every lie is a deterministic function of the
query and the colluder clique -- no adversary-side RNG -- so a seeded
Byzantine run is pinned bit for bit, per backend.  The two backends
must also emit the *same adversary-record schema*, so downstream
tooling never branches on the substrate.
"""

from __future__ import annotations

import pytest

from repro.scenarios import preset, run_scenario

ADVERSARY_PINS = {
    "chord": {
        "completed": 80,
        "failed": 0,
        "sim_time": 75.0,
        "shard_messages": [26144, 17938],
        "shard_draws": [42, 38],
        "shard_captured": [24, 28],
        "byzantine_total": 10,
        "capture_rate": 0.65,
        "committee_empirical": 0.8,
        "lies_told": 8189,
        "latency_mean": 2.4145119683914524,
    },
    "kademlia": {
        "completed": 80,
        "failed": 0,
        "sim_time": 100.0,
        "shard_messages": [12180, 46904],
        "shard_draws": [58, 22],
        "shard_captured": [11, 3],
        "byzantine_total": 10,
        "capture_rate": 0.175,
        "committee_empirical": 0.2,
        "lies_told": 9742,
        "latency_mean": 3.150073387203172,
    },
}


def _run(backend: str):
    return run_scenario(preset("byzantine", backend=backend, n=24, requests=80, seed=5))


def _pin_fields(result) -> dict:
    rec = result.to_record()
    adv = rec["adversary"]
    return {
        "completed": rec["completed"],
        "failed": rec["failed"],
        "sim_time": rec["sim_time"],
        "shard_messages": [s["messages"] for s in rec["shards"]],
        "shard_draws": [s["draws"] for s in rec["shards"]],
        "shard_captured": [s["captured_draws"] for s in rec["shards"]],
        "byzantine_total": adv["byzantine_total"],
        "capture_rate": adv["capture_rate"],
        "committee_empirical": adv["committee"]["empirical_capture"],
        "lies_told": sum(s["lies_told"] for s in adv["shards"]),
        "latency_mean": rec["latency"]["mean"],
    }


def _schema(value, path=""):
    """Flatten a record into sorted (path, type) leaves for comparison."""
    if isinstance(value, dict):
        if path.endswith("lies_by_method"):
            # keyed by RPC method name, which legitimately differs per
            # backend; the schema contract is str -> int
            assert all(
                isinstance(k, str) and isinstance(v, int) for k, v in value.items()
            )
            return [(f"{path}.*", "int")]
        out = []
        for k in value:
            out.extend(_schema(value[k], f"{path}.{k}"))
        return sorted(out)
    if isinstance(value, list):
        # lists vary in length across backends; one element pins the shape
        return _schema(value[0], f"{path}[]") if value else [(f"{path}[]", "empty")]
    return [(path, type(value).__name__)]


@pytest.fixture(scope="module")
def results():
    return {backend: _run(backend) for backend in sorted(ADVERSARY_PINS)}


@pytest.mark.parametrize("backend", sorted(ADVERSARY_PINS))
def test_adversarial_run_matches_pin(results, backend):
    assert _pin_fields(results[backend]) == ADVERSARY_PINS[backend]


@pytest.mark.parametrize("backend", sorted(ADVERSARY_PINS))
def test_adversarial_run_is_repeatable_in_process(results, backend):
    rec_a = results[backend].to_record()
    rec_b = _run(backend).to_record()
    rec_a.pop("wall_seconds", None)
    rec_b.pop("wall_seconds", None)
    assert rec_a == rec_b


def test_adversary_record_schema_identical_across_backends(results):
    chord = results["chord"].to_record()
    kad = results["kademlia"].to_record()
    assert _schema(chord["adversary"]) == _schema(kad["adversary"])
    assert _schema(chord["shards"][0]) == _schema(kad["shards"][0])
