"""Decade scaling of the array-held overlays (Chord's ring store, SoA Kademlia).

Thin entry point around :mod:`repro.bench.scale` (also reachable as
``python -m repro bench scale``), kept in ``benchmarks/`` so the
artifact-producing scripts stay discoverable in one place.  See the
module docstring there for what is measured; results land in
``BENCH_scale.json`` at the repo root.
"""

from __future__ import annotations

from repro.bench.scale import emit, main, run


def test_scale_quick(show, tmp_path):
    """Smoke configuration: one small decade plus the churn invariant."""
    table, results, churn = run([4096], build_only=[], lookups=512, seed=0)
    show(table)
    emit(results, churn, tmp_path / "BENCH_scale.json", quick=True, seed=0)
    assert {r["backend"] for r in results} == {"chord", "kademlia-soa"}
    builds = [r for r in results if r["phase"] == "build"]
    serves = [r for r in results if r["phase"] == "serve"]
    assert all(r["spot_check_ok"] for r in builds)
    assert all(r["oracle_ok"] for r in serves)
    assert all(r["lookups_per_sec"] > 0 for r in serves)
    # the tentpole invariant: churn is absorbed without full rebuilds
    assert churn["full_rebuilds"] == 0
    assert churn["incremental_equals_rebuild"]


if __name__ == "__main__":
    raise SystemExit(main())
