"""The batch engine draws exactly what sequential scalar draws draw.

With the same seed, :class:`~repro.core.engine.BatchSampler` drawing
``k`` peers in calls of any sizes returns the peers of ``k`` sequential
scalar draws and charges the same :class:`~repro.dht.api.CostSnapshot`
(the default latencies are integers, so the engine's sums are exact).
The reference below is the rejection loop itself, written out over
``RandomPeerSampler.trial(1.0 - rng.random())`` on a twin substrate: a
trial that dies of peer unreachability is a failed trial, and the loop
stops at the first success.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchSampler, ChordNetwork, IdealDHT, RandomPeerSampler
from repro.dht.api import PeerUnreachableError
from repro.dht.chord.soa import SoAChordNetwork


def scalar_draws(dht, params, seed: int, count: int) -> list:
    """``count`` draws by the scalar rejection loop on ``dht``."""
    sampler = RandomPeerSampler(dht, n_hat=params.n_hat)
    rng = random.Random(seed)
    peers = []
    while len(peers) < count:
        try:
            peer = sampler.trial(1.0 - rng.random()).peer
        except PeerUnreachableError:
            continue
        if peer is not None:
            peers.append(peer)
    return peers


def _chord(seed: int, n: int, crashes: int = 0, mode: str = "iterative", warm: bool = False):
    net = ChordNetwork.build(n, m=16, rng=random.Random(seed))
    if crashes:
        # Fail-stop without stabilizing: stale fingers and successors
        # make lookups route around (or, recursive, fail on) dead peers
        # and walks leave their certified runs.
        victims = random.Random(seed + 1).sample(sorted(net.nodes)[1:], min(crashes, n - 1))
        for victim in victims:
            net.crash_node(victim)
    dht = net.dht(lookup_mode=mode)
    if warm:
        dht.warm_lockstep()
    return dht


#: substrate name -> builder(seed, n); each call builds an identical twin.
SUBSTRATES = {
    "ideal": lambda seed, n: IdealDHT.random(n, random.Random(seed)),
    "chord-table": lambda seed, n: _chord(seed, n, warm=True),
    "chord-lanes": lambda seed, n: _chord(seed, n),
    "chord-crashed": lambda seed, n: _chord(seed, n, crashes=n // 5 + 1, mode="recursive"),
    "chord-soa": lambda seed, n: SoAChordNetwork.build(n, m=16, rng=random.Random(seed)).dht(),
}


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@given(
    n=st.integers(min_value=1, max_value=48),
    estimate=st.sampled_from([0.5, 1.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**31),
    sizes=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=5),
)
@settings(max_examples=12, deadline=None)
def test_calls_of_any_size_draw_the_scalar_sequence(substrate, n, estimate, seed, sizes):
    make = SUBSTRATES[substrate]
    batched, scalar = make(seed, n), make(seed, n)
    engine = BatchSampler(batched, n_hat=max(1.0, estimate * n), rng=random.Random(seed))
    drawn = [peer for k in sizes for peer in engine.sample_many(k)]
    assert drawn == scalar_draws(scalar, engine.params, seed, len(drawn))
    assert batched.cost.snapshot() == scalar.cost.snapshot()


@pytest.mark.parametrize("substrate", ["ideal", "chord-table"])
def test_a_scalar_draw_continues_the_batch_stream(substrate):
    make = SUBSTRATES[substrate]
    batched, scalar = make(7, 40), make(7, 40)
    sampler = RandomPeerSampler(batched, n_hat=40.0, rng=random.Random(8))
    drawn = sampler.sample_many(3)
    drawn.append(sampler.sample())
    drawn += sampler.sample_many(2)
    drawn.append(sampler.sample_with_stats().peer)
    assert drawn == scalar_draws(scalar, sampler.params, 8, len(drawn))
    assert batched.cost.snapshot() == scalar.cost.snapshot()
