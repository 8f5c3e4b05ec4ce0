"""The engine walks only the trials that can win.

A non-small trial whose arc exceeds its first ring position's ``reach``
(the largest of Theorem 6's thresholds along its walk, widened by a
rounding margin) exhausts its budget, so the engine marks it
EXHAUSTED without running the walk kernel.  These tests pin the filter
at its boundary against the scalar ``trial``, count how few trials still
reach the kernel, and check that ``BatchSampler.warm()`` leaves the
first call nothing to build.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repro import BatchSampler, ChordNetwork, IdealDHT, RandomPeerSampler
from repro.core import engine as engine_mod
from repro.core.intervals import ring_gaps
from repro.core.sampler import TrialOutcome


def _largest_winning_arcs(gaps, lam: float, budget: int) -> list[Fraction]:
    """``lam - min_k sum_{i<k} (gap_{p+i} - lam)`` for every ring
    position ``p``, exactly, from the ring's float gaps."""
    lam = Fraction(lam)
    steps = [Fraction(g) - lam for g in gaps.tolist()]
    n = len(steps)
    arcs = []
    for p in range(n):
        total = Fraction(0)
        low = None
        for k in range(budget):
            total += steps[(p + k) % n]
            low = total if low is None else min(low, total)
        arcs.append(lam - low)
    return arcs


def _around(x: float, ulps: int) -> list[float]:
    """``x`` and its ``ulps`` float neighbours on either side."""
    out = [x]
    up = down = x
    for _ in range(ulps):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def _boundary_points(pts, arcs, lam: float, ulps: int) -> list[float]:
    """Points whose arc to their own ring position lies a few ulps either
    side of ``lam`` (small hit or walk) and of the largest winning arc
    (walk hit or exhausted)."""
    n = len(pts)
    out = []
    for p in range(n):
        pred = 1.0 if n == 1 else (pts[p] - pts[p - 1]) % 1.0
        for arc in {lam, float(arcs[p])}:
            if not lam <= arc < pred:
                continue  # a point that far back belongs to an earlier peer
            s = pts[p] - arc
            if s <= 0.0:
                s += 1.0
            out += [x for x in _around(s, ulps) if 0.0 < x <= 1.0]
    return out


def test_the_filter_never_skips_a_winning_walk():
    # Random small rings, a lap-sized budget on the smallest, estimates
    # from 0.3 to 3 times the true size: every point placed around an
    # exact boundary classifies as the scalar trial runs it.  Without
    # the rounding margin some winning walks are filtered out.
    rng = random.Random(19)
    checked = 0
    for ring in range(160):
        n = 1 if ring % 20 == 0 else rng.randint(2, 39)
        dht = IdealDHT.random(n, rng)
        sampler = RandomPeerSampler(dht, n_hat=max(1.0, rng.uniform(0.3, 3.0) * n))
        engine = BatchSampler(dht, params=sampler.params)
        lam, budget = sampler.params.lam, sampler.params.walk_budget
        pts = np.asarray(dht.points_array(), dtype=np.float64)
        arcs = _largest_winning_arcs(ring_gaps(pts), lam, budget)
        points = _boundary_points(pts.tolist(), arcs, lam, 6)
        assert engine.trial_many(points) == [sampler.trial(s) for s in points], (ring, n)
        checked += len(points)
    assert checked > 5000


def _counting(monkeypatch, name: str, arg: int) -> list[int]:
    """Record the length of argument ``arg`` of every call to ``engine.<name>``."""
    calls: list[int] = []
    real = getattr(engine_mod, name)

    def counted(*args):
        calls.append(len(args[arg]))
        return real(*args)

    monkeypatch.setattr(engine_mod, name, counted)
    return calls


def _ideal():
    return IdealDHT.random(2000, random.Random(5))


def _chord():
    dht = ChordNetwork.build(2000, m=16, rng=random.Random(5)).dht()
    dht.warm_lockstep()
    return dht


@pytest.mark.parametrize("make", [_ideal, _chord], ids=["ideal", "chord"])
def test_few_non_small_trials_reach_the_walk_kernel(make, monkeypatch):
    engine = BatchSampler(make(), n_hat=2000.0)
    walked = _counting(monkeypatch, "_walk_kernel", 2)  # the trials' first positions
    rng = random.Random(6)
    results = engine.trial_many([1.0 - rng.random() for _ in range(2048)])
    non_small = sum(r.outcome is not TrialOutcome.SMALL_HIT for r in results)
    assert non_small > 1000
    assert sum(walked) <= 0.05 * non_small


@pytest.mark.parametrize("make", [_ideal, _chord], ids=["ideal", "chord"])
def test_warm_leaves_the_first_call_no_windows_to_build(make, monkeypatch):
    engine = BatchSampler(make(), n_hat=2000.0, rng=random.Random(7))
    built = _counting(monkeypatch, "_walk_windows", 0)
    engine.warm()
    assert len(built) == 1
    engine.sample_many(1)
    assert len(built) == 1
