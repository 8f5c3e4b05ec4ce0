"""The bare transport twin in ``benchmarks/bench_obs.py`` stays in step.

The observability benchmark times tracing against a copy of the
transport's delivery path without its instrumentation, swapped in for
the baseline runs.  A seeded scenario must produce the same record
through the copy as through the transport itself: a difference means
the copy no longer delivers what the transport delivers.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_obs.py"
_spec = importlib.util.spec_from_file_location("bench_obs", _SCRIPT)
bench_obs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_obs)


@pytest.mark.parametrize("backend", bench_obs.BACKENDS)
def test_the_bare_twin_delivers_what_the_transport_delivers(backend):
    spec = bench_obs.bench_spec(backend, quick=True)
    bare, _ = bench_obs.run_mode(spec, "bare")
    off, _ = bench_obs.run_mode(spec, "off")
    assert bench_obs.fingerprint(bare) == bench_obs.fingerprint(off)
