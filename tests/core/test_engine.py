"""Tests for the batch sampling engine (scalar equivalence, uniformity,
bulk rejection rounds, and the distinct-sampling contract)."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BulkDHT, ChordNetwork, IdealDHT, RandomPeerSampler
from repro.analysis.stats import chi_square_uniform
from repro.core import engine as engine_mod
from repro.core.engine import BatchSampler
from repro.core.errors import SamplingError
from repro.dht.api import CostSnapshot


def _pair(dht, n_hat, seed=0):
    """A scalar sampler and a batch engine sharing parameters."""
    sampler = RandomPeerSampler(dht, n_hat=n_hat, rng=random.Random(seed))
    eng = BatchSampler(dht, params=sampler.params, rng=random.Random(seed))
    return sampler, eng


class TestScalarEquivalence:
    """The heart of the tentpole: for the same trial points the batch
    engine and the scalar ``trial()`` must produce *identical* outcomes
    (same peer, same TrialOutcome, same walk length)."""

    @pytest.mark.parametrize(
        "n, trials",
        [pytest.param(n, 400, id=str(n)) for n in (1, 2, 3, 17, 64, 512)]
        # walk_budget is 28 at n_hat = 27, 28 and 29: walks that lap the
        # ring exactly, one position short of it, and one past it
        + [pytest.param(n, 400, id=str(n)) for n in (27, 28, 29)]
        # enough walks that the kernel runs more than one slab
        + [pytest.param(512, 3 * engine_mod._WALK_SLAB, id="512-slabs")],
    )
    def test_ideal_numpy_path(self, n, trials):
        rng = random.Random(1000 + n)
        dht = IdealDHT.random(n, rng)
        sampler, eng = _pair(dht, float(n))
        points = [1.0 - rng.random() for _ in range(trials)]
        assert eng.trial_many(points) == [sampler.trial(s) for s in points]

    def test_chord_fallback_path(self):
        net = ChordNetwork.build(32, m=16, rng=random.Random(42))
        dht = net.dht()
        sampler, eng = _pair(dht, 32.0)
        rng = random.Random(43)
        points = [1.0 - rng.random() for _ in range(120)]
        assert eng.trial_many(points) == [sampler.trial(s) for s in points]

    def test_trial_points_validated(self, medium_dht):
        _, eng = _pair(medium_dht, 512.0)
        for bad in (0.0, -0.25, 1.5, float("nan")):
            with pytest.raises(ValueError):
                eng.trial_many([0.5] * 100 + [bad])

    @pytest.mark.parametrize("substrate", ["ideal", "chord"])
    def test_bad_points_are_reported_as_the_scalar_path_reports_them(self, substrate):
        # The batched paths hold points as float arrays; an out-of-circle
        # point is still named as the scalar path names it ("point 1.5"),
        # not as a numpy scalar.
        if substrate == "ideal":
            dht = IdealDHT.random(64, random.Random(3))
        else:
            dht = ChordNetwork.build(64, m=16, rng=random.Random(3)).dht()
            assert dht.warm_lockstep()
        sampler, eng = _pair(dht, 64.0)

        def message(call):
            with pytest.raises(ValueError) as raised:
                call()
            return str(raised.value)

        expected = message(lambda: sampler.trial(1.5))
        assert expected.startswith("point 1.5 ")
        assert message(lambda: eng.trial_many([0.5, 1.5])) == expected
        # 70 points: the array lane of h_many, not the scalar loop.
        assert message(lambda: dht.h_many([0.5] * 69 + [1.5])) == message(lambda: dht.h(1.5))

    def test_small_batches_match_scalar_trials(self, medium_dht):
        sampler, eng = _pair(medium_dht, 512.0)
        rng = random.Random(9)
        points = [1.0 - rng.random() for _ in range(5)]
        assert eng.trial_many(points) == [sampler.trial(s) for s in points]


class TestCostParity:
    def test_batch_meter_totals_match_scalar(self):
        """charge_bulk amortizes metering without changing the totals."""
        rng = random.Random(5)
        ring = [1.0 - rng.random() for _ in range(256)]
        scalar_dht = IdealDHT.from_points(ring)
        batch_dht = IdealDHT.from_points(ring)
        sampler, _ = _pair(scalar_dht, 256.0)
        _, eng = _pair(batch_dht, 256.0)
        points = [1.0 - rng.random() for _ in range(300)]
        for s in points:
            sampler.trial(s)
        eng.trial_many(points)
        assert scalar_dht.cost.snapshot() == batch_dht.cost.snapshot()


class TestSampleMany:
    def test_rejects_negative(self, medium_dht):
        _, eng = _pair(medium_dht, 512.0)
        with pytest.raises(ValueError):
            eng.sample_many(-1)

    def test_zero(self, medium_dht):
        _, eng = _pair(medium_dht, 512.0)
        assert eng.sample_many(0) == []

    def test_length_and_validity(self, medium_dht):
        _, eng = _pair(medium_dht, 512.0)
        peers = eng.sample_many(250)
        assert len(peers) == 250
        assert all(p in medium_dht.peers for p in peers)

    def test_sampler_delegates_on_bulk_substrate(self, medium_dht):
        sampler = RandomPeerSampler(medium_dht, n_hat=512.0, rng=random.Random(3))
        assert isinstance(medium_dht, BulkDHT)
        peers = sampler.sample_many(40)
        assert len(peers) == 40
        assert isinstance(sampler._engine, BatchSampler)

    def test_chord_is_not_bulk_capable(self):
        net = ChordNetwork.build(8, m=16, rng=random.Random(6))
        dht = net.dht()
        assert not isinstance(dht, BulkDHT)
        sampler = RandomPeerSampler(dht, n_hat=8.0, rng=random.Random(7))
        assert sampler.sample_many(3)

    def test_trial_budget_enforced(self):
        dht = IdealDHT.random(10, random.Random(8))
        eng = BatchSampler(dht, n_hat=1e9, rng=random.Random(9), max_trials=1)
        with pytest.raises(SamplingError):
            eng.sample_many(1)

    def test_uniformity_chi_square(self):
        n, draws = 64, 6400
        dht = IdealDHT.random(n, random.Random(21))
        eng = BatchSampler(dht, n_hat=float(n), rng=random.Random(22))
        counts = Counter(p.peer_id for p in eng.sample_many(draws))
        observed = [counts.get(i, 0) for i in range(n)]
        assert not chi_square_uniform(observed).rejects_uniformity(alpha=0.001)

    def test_a_cold_call_classifies_little_more_than_it_commits(self):
        # The first block of a call is the expected trials for its draws
        # plus a few standard deviations, not twice the expected trials.
        dht = IdealDHT.random(10_000, random.Random(10_000))
        eng = BatchSampler(dht, n_hat=1e4, rng=random.Random(3))
        classified = []
        classify = eng._classify_block

        def counting(points, key):
            classified.append(len(points))
            return classify(points, key)

        eng._classify_block = counting
        result = eng.sample_many_attributed(500)
        assert sum(classified) <= 1.3 * result.trials

    @given(
        need=st.integers(min_value=1, max_value=10**6),
        p=st.floats(min_value=1e-4, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_round_is_never_larger_than_twice_the_expected_trials(self, need, p):
        # Two rounds' worth (plus 8) was the rule before the margin, and
        # stays its cap: a one-draw call's first block keeps its size.
        twice = max(need, int(need / p * 2.0) + 8)
        size = engine_mod._round_size(need, p)
        assert need <= size <= twice
        if need < 8 * (1.0 - p):  # three deviations exceed the mean
            assert size == twice


class TestSampleManyAttributed:
    """The serving-layer hook: draws plus trial/round/cost attribution."""

    def test_matches_sample_many_given_same_rng(self, medium_dht):
        _, eng_a = _pair(medium_dht, 512.0, seed=4)
        _, eng_b = _pair(medium_dht, 512.0, seed=4)
        assert list(eng_a.sample_many_attributed(60).peers) == eng_b.sample_many(60)

    def test_cost_delta_is_this_calls_share(self, medium_dht):
        _, eng = _pair(medium_dht, 512.0, seed=5)
        before = medium_dht.cost.snapshot()
        result = eng.sample_many_attributed(30)
        delta = medium_dht.cost.snapshot() - before
        assert result.cost == delta
        assert result.cost.h_calls == result.trials  # one h per trial point
        assert result.cost.latency > 0

    def test_round_and_trial_counts(self, medium_dht):
        _, eng = _pair(medium_dht, 512.0, seed=6)
        result = eng.sample_many_attributed(100)
        assert len(result.peers) == 100
        assert result.rounds >= 1
        assert result.trials >= 100  # at least one trial per draw

    def test_zero_request_batch(self, medium_dht):
        _, eng = _pair(medium_dht, 512.0)
        result = eng.sample_many_attributed(0)
        assert result.peers == () and result.trials == 0 and result.rounds == 0


@pytest.mark.parametrize("sampler_cls", [BatchSampler, RandomPeerSampler])
def test_max_trials_is_rejected_before_estimate_n_charges(sampler_cls):
    dht = IdealDHT.random(1000, random.Random(37))
    with pytest.raises(ValueError, match="max_trials"):
        sampler_cls(dht, max_trials=0)
    assert dht.cost.snapshot() == CostSnapshot()


class TestSampleDistinctBatched:
    def test_distinct_and_valid(self):
        n = 64
        dht = IdealDHT.random(n, random.Random(30))
        _, eng = _pair(dht, float(n), seed=31)
        peers = eng.sample_distinct(20)
        ids = [p.peer_id for p in peers]
        assert len(ids) == 20 and len(set(ids)) == 20

    def test_zero_is_empty(self, medium_dht):
        _, eng = _pair(medium_dht, 512.0)
        assert eng.sample_distinct(0) == []

    def test_k_beyond_n_raises(self):
        n = 8
        dht = IdealDHT.random(n, random.Random(32))
        _, eng = _pair(dht, float(n), seed=33)
        with pytest.raises(SamplingError):
            eng.sample_distinct(n + 1, max_draws=400)

    def test_sampler_routes_distinct_through_engine(self, medium_dht):
        sampler = RandomPeerSampler(medium_dht, n_hat=512.0, rng=random.Random(34))
        peers = sampler.sample_distinct(15)
        assert len({p.peer_id for p in peers}) == 15
        assert isinstance(sampler._engine, BatchSampler)

    def test_subset_inclusion_is_uniform(self):
        """Each peer lands in a random k-subset with probability k/n."""
        n, k, rounds = 16, 4, 800
        dht = IdealDHT.random(n, random.Random(35))
        _, eng = _pair(dht, float(n), seed=36)
        counts = {i: 0 for i in range(n)}
        for _ in range(rounds):
            for peer in eng.sample_distinct(k):
                counts[peer.peer_id] += 1
        expected = rounds * k / n
        for c in counts.values():
            assert c == pytest.approx(expected, rel=0.3)
