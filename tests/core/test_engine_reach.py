"""Every walk stops once it cannot win, and keeps the full walk's outcome.

A non-small trial walks until ``T <= 0`` (it ends at that peer) or until
``T`` exceeds the cut for the hops left (``SamplerParams.cuts``), after
which no hop could bring it to zero.  These tests check the cut against
the full-budget walk at its exact boundaries and its table against
``lam`` and the budget, pin the engine's walk kernel to the scalar
``trial`` at the hit boundary, count how few walks outlive the kernel's
narrow first pass, and check that ``BatchSampler.warm()`` leaves the
first call nothing to build.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import BatchSampler, ChordNetwork, IdealDHT, RandomPeerSampler
from repro.core import engine as engine_mod
from repro.core.assignment import trial_on_circle
from repro.core.intervals import SortedCircle, clockwise_distance, ring_gaps
from repro.core.sampler import GAMMA1, SamplerParams, TrialOutcome


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
    # exact boundary (small hit or walk; the last hop a walk could win
    # at) classifies as the scalar trial runs it.
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
def test_few_non_small_trials_leave_the_narrow_slab(make, monkeypatch):
    # Only a walk that neither hits nor is cut within the kernel's first
    # _SHORT hops goes on to its full-width pass, the kernel's one
    # row-wise cumsum: count the rows that reach it.
    engine = BatchSampler(make(), n_hat=2000.0)
    widened: list[int] = []
    real = np.cumsum

    def counted(a, *args, axis=None, **kwargs):
        if axis == 1:
            widened.append(len(a))
        return real(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(engine_mod._np, "cumsum", counted)
    rng = random.Random(6)
    results = engine.trial_many([1.0 - rng.random() for _ in range(2048)])
    non_small = sum(r.outcome is not TrialOutcome.SMALL_HIT for r in results)
    assert non_small > 1000
    assert sum(widened) == sum(r.walk_hops > engine_mod._SHORT for r in results)
    assert sum(widened) <= 0.05 * non_small


@pytest.mark.parametrize("make", [_ideal, _chord], ids=["ideal", "chord"])
def test_warm_leaves_the_first_call_no_windows_to_build(make, monkeypatch):
    engine = BatchSampler(make(), n_hat=2000.0, rng=random.Random(7))
    built = _counting(monkeypatch, "_walk_windows", 0)
    engine.warm()
    assert len(built) == 1
    engine.sample_many(1)
    assert len(built) == 1


def _full_walk(circle: SortedCircle, lam: float, budget: int, s: float) -> tuple:
    """Figure 1 without the cut: ``(outcome, peer index, hops)`` of the
    walk that runs until ``T <= 0`` or the budget is spent."""
    idx = circle.successor_index(s)
    arc = clockwise_distance(s, circle[idx])
    if arc < lam:
        return TrialOutcome.SMALL_HIT, idx, 0
    t = arc - lam
    for hop in range(1, budget + 1):
        nxt = circle.next_index(idx)
        step = 1.0 if nxt == idx else clockwise_distance(circle[idx], circle[nxt])
        t += step - lam
        if t <= 0.0:
            return TrialOutcome.WALK_HIT, nxt, hop
        idx = nxt
    return TrialOutcome.EXHAUSTED, None, budget


def _cut_arcs(gaps, lam: float, cuts, p: int) -> list[Fraction]:
    """The arcs at which a walk from ring position ``p`` is cut after hop
    ``k``, ``T_k == cuts[budget - k]``, and at which it hits, ``T_k ==
    0``, for every ``k``: exactly, from the float steps the walk adds."""
    n = len(gaps)
    lam_q = Fraction(lam)
    budget = len(cuts) - 1
    arcs = []
    total = Fraction(0)  # the steps of the first k hops
    for k in range(budget + 1):
        arcs.append(lam_q + Fraction(cuts[budget - k]) - total)
        if k:
            arcs.append(lam_q - total)
        step = 1.0 if n == 1 else float(gaps[(p + k) % n])
        total += Fraction(step - lam)
    return arcs


def _ring_points(n: int, seed: int, run: int) -> list[float]:
    """``n`` uniform points, the first ``run`` of them moved onto one."""
    rng = random.Random(seed)
    points = [1.0 - rng.random() for _ in range(n)]
    if run > 1:
        points[:run] = [points[0]] * run
    return points


@st.composite
def _rings(draw):
    """Up to 60 peers at uniform points, often with a long run of peers
    at one point (zero steps, the least a hop can add, so ``T`` falls by
    ``lam`` per hop and meets the cut's rounding); an estimate from 0.2
    to 5 times the true size, and the paper's ``gamma1`` or 1 (with
    which a small estimate gives budgets of 6 and 7 hops, fewer than
    the kernel's narrow pass)."""
    n = draw(st.integers(1, 60))
    run = draw(st.one_of(st.integers(0, n), st.integers(max(0, n - 3), max(0, n - 1))))
    points = _ring_points(n, draw(st.integers(0, 2**32 - 1)), run)
    n_hat = max(1.0, draw(st.floats(0.2, 5.0)) * n)
    gamma1 = draw(st.sampled_from([GAMMA1, 1.0]))
    return points, n_hat, gamma1, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(_rings())
# With cuts[j] = j * lam, no rounding margin, a walk into this ring's run
# of 26 peers at one point is cut with T two ulps above 25 * lam, and
# loses the hit that 25 zero steps later bring.
@example((_ring_points(42, 0, 26), 21.0, GAMMA1, 0))
# A 6-hop budget, shorter than the kernel's 8-hop pass: T keeps falling in
# the pass's columns past the budget, and those must not count as hits.
@example((_ring_points(2, 0, 2), 2.0, 1.0, 0))
def test_the_cut_keeps_every_outcome(ring):
    # Points a few ulps either side of every cut and hit boundary, and
    # uniform ones: the cut walk ends where the full-budget walk does,
    # at the same peer, in at most its hops, and the engine agrees with
    # the scalar trial, hops included.
    points, n_hat, gamma1, seed = ring
    dht = IdealDHT.from_points(points)
    sampler = RandomPeerSampler(dht, n_hat=n_hat, gamma1=gamma1)
    engine = BatchSampler(dht, params=sampler.params)
    params = sampler.params
    lam, budget = params.lam, params.walk_budget
    circle = SortedCircle(points)
    pts = circle.points
    gaps = ring_gaps(np.asarray(pts, dtype=np.float64))
    n = len(pts)
    rng = random.Random(seed)
    probe = [1.0 - rng.random() for _ in range(100)]
    for p in range(n):
        pred = 1.0 if n == 1 else clockwise_distance(pts[p - 1], pts[p])
        for arc in _cut_arcs(gaps, lam, params.cuts, p):
            if not lam <= arc < pred:
                continue  # a point that far back belongs to an earlier peer
            s = pts[p] - float(arc)
            if s <= 0.0:
                s += 1.0
            probe += [x for x in _around(s, 2) if 0.0 < x <= 1.0]
    results = [sampler.trial(s) for s in probe]
    for s, got in zip(probe, results):
        outcome, peer, hops = _full_walk(circle, lam, budget, s)
        assert (got.outcome, got.peer and got.peer.peer_id) == (outcome, peer), s
        assert trial_on_circle(circle, params, s) == (outcome, peer)
        assert got.walk_hops <= hops
    assert engine.trial_many(probe) == results


def test_the_cut_table_follows_lam_and_budget():
    # The table is derived from lam and walk_budget, never passed in, so
    # a copy with other values gets its own.
    params = SamplerParams.from_estimate(1000.0)
    lam, budget = params.lam, params.walk_budget
    assert len(params.cuts) == budget + 1 and params.cuts[0] == 0.0
    assert all(j * lam < cut for j, cut in enumerate(params.cuts) if j)
    other = dataclasses.replace(params, lam=2 * lam, walk_budget=budget - 1)
    assert len(other.cuts) == budget and other.cuts[1] > params.cuts[1]
    with pytest.raises(TypeError):
        SamplerParams(n_hat=1000.0, n_prime=3500.0, lam=lam, walk_budget=budget, cuts=params.cuts)
