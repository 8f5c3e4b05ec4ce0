"""The batch engine draws exactly what sequential scalar draws draw.

With the same seed, :class:`~repro.core.engine.BatchSampler` drawing
``k`` peers in calls of any sizes returns the peers of ``k`` sequential
scalar draws and charges the same :class:`~repro.dht.api.CostSnapshot`
(the default latencies are integers, so the engine's sums are exact).
The reference below is the rejection loop itself, written out over
``RandomPeerSampler.trial(1.0 - rng.random())`` on a twin substrate: a
trial that dies of peer unreachability is a failed trial, and the loop
stops at the first success.  The engine classifies a block of trial
points once and commits from it across calls, so the properties also
change the ring, the entry peer and the parameters between calls: each
change must drop the block's classification and keep its points.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchSampler, ChordNetwork, IdealDHT, RandomPeerSampler
from repro.compat import load_numpy
from repro.core.engine import _WALK_SLAB
from repro.dht.api import PeerUnreachableError
from repro.dht.chord.soa import SoAChordNetwork

#: Whether the numpy lane (and with it block classification) is live.
NUMPY = load_numpy() is not None


class ScalarReference:
    """The scalar rejection loop on a twin substrate, continued across calls."""

    def __init__(self, dht, params, seed: int):
        self.sampler = RandomPeerSampler(dht, n_hat=params.n_hat)
        self.rng = random.Random(seed)

    def draws(self, count: int) -> list:
        peers = []
        while len(peers) < count:
            try:
                peer = self.sampler.trial(1.0 - self.rng.random()).peer
            except PeerUnreachableError:
                continue
            if peer is not None:
                peers.append(peer)
        return peers


def scalar_draws(dht, params, seed: int, count: int) -> list:
    """``count`` draws by the scalar rejection loop on ``dht``."""
    return ScalarReference(dht, params, seed).draws(count)


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


def _pick(dht, pick: int) -> int | None:
    """A live peer other than the entry, chosen by ``pick`` (None when
    the ring is too small to lose one)."""
    ids = [i for i in dht._network.sorted_ids() if i != dht.entry_id]
    return ids[pick % len(ids)] if len(ids) >= 3 else None


def _crash(dht, pick):
    victim = _pick(dht, pick)
    if victim is not None:
        dht._network.crash_node(victim)


def _leave(dht, pick):
    victim = _pick(dht, pick)
    if victim is not None:
        dht._network.leave_node(victim)


def _crash_entry(dht, pick):
    # An entry crashed earlier stays dead until a lookup fails it over.
    if dht.entry_is_alive and len(dht._network.sorted_ids()) >= 4:
        dht._network.crash_node(dht.entry_id)  # the next lookup fails over


#: Ring changes, applied to both twins through the network API.
RING_OPS = {
    "join": lambda dht, pick: dht._network.join_node(),
    "crash": _crash,
    "leave": _leave,
    "stabilize": lambda dht, pick: dht._network.stabilize_round(),
    "crash-entry": _crash_entry,
}

#: Changes that reach the engine, not the ring.
ENGINE_OPS = ("none", "refresh", "scalar")

#: substrate name -> builder(seed, n) for the invalidation property.
CHANGING = {
    "ideal": SUBSTRATES["ideal"],
    "chord-table": SUBSTRATES["chord-table"],
    "chord-lanes": SUBSTRATES["chord-lanes"],
    "chord-soa": SUBSTRATES["chord-soa"],
}


@pytest.mark.parametrize("substrate", sorted(CHANGING))
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.lists(
        st.tuples(
            st.sampled_from(ENGINE_OPS + tuple(sorted(RING_OPS))),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=2**16),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=10, deadline=None)
def test_every_invalidation_keeps_the_scalar_sequence(substrate, n, seed, steps):
    make = CHANGING[substrate]
    batched, twin = make(seed, n), make(seed, n)
    sampler = RandomPeerSampler(batched, n_hat=float(n), rng=random.Random(seed))
    reference = ScalarReference(twin, sampler.params, seed)
    drawn, expected = [], []
    for op, k, pick in steps:
        if op == "refresh":
            n_hat = max(1.0, n * (0.5 + pick % 5 / 2))
            sampler.refresh(n_hat)
            reference.sampler.refresh(n_hat)
        elif op == "scalar":
            drawn.append(sampler.sample())
            expected += reference.draws(1)
        elif op in RING_OPS and substrate != "ideal":
            RING_OPS[op](batched, pick)
            RING_OPS[op](twin, pick)
        drawn += sampler.sample_many(k)
        expected += reference.draws(k)
        assert drawn == expected
        assert batched.cost.snapshot() == twin.cost.snapshot()


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


@pytest.mark.skipif(not NUMPY, reason="blocks are classified on the numpy lane only")
def test_a_static_ring_is_classified_once_per_block():
    # A warmed, static ring keeps one classification for many calls: the
    # uncharged resolve runs once per block, not once per call.  A ring
    # change between two calls forces a new one, and the draws after it
    # are still the scalar loop's.
    batched, twin = _chord(3, 2000, warm=True), _chord(3, 2000, warm=True)
    resolves = []
    resolve = batched.resolve_many

    def counting(xs, *, commit=True):
        if not commit:
            resolves.append(len(xs))
        return resolve(xs, commit=commit)

    batched.resolve_many = counting
    engine = BatchSampler(batched, n_hat=2000.0, rng=random.Random(4))
    trials = sum(engine.sample_many_attributed(1).trials for _ in range(200))
    assert len(resolves) <= 10

    for dht in (batched, twin):
        dht._network.join_node()
        dht._network.stabilize_round()
    before, charged = len(resolves), batched.cost.snapshot()
    drawn = engine.sample_many(3)
    assert len(resolves) > before

    reference = ScalarReference(twin, engine.params, 4)
    for _ in range(trials):  # the points the first 200 calls committed
        reference.rng.random()
    twin_before = twin.cost.snapshot()
    assert drawn == reference.draws(3)
    assert batched.cost.snapshot() - charged == twin.cost.snapshot() - twin_before


@pytest.mark.skipif(not NUMPY, reason="blocks are classified on the numpy lane only")
@pytest.mark.parametrize("substrate", ["ideal", "chord-table"])
def test_a_large_call_leaves_at_most_one_slab_classified(substrate):
    # A call that classified far more points than it committed hands the
    # rest back to the queue as bare points, so what stays classified
    # between calls is bounded by one slab; the draws after it are still
    # the scalar loop's.
    make = SUBSTRATES[substrate]
    batched, twin = make(5, 400), make(5, 400)
    engine = BatchSampler(batched, n_hat=400.0, rng=random.Random(6))
    drawn = engine.sample_many(150)  # ~3,500 trials of a ~7,000-point block
    assert engine._block is None and len(engine._pending) > _WALK_SLAB
    for k in (2, 1, 40):
        drawn += engine.sample_many(k)
        block = engine._block
        assert block is None or len(block.points) - block.cursor <= _WALK_SLAB
    assert drawn == scalar_draws(twin, engine.params, 6, len(drawn))
    assert batched.cost.snapshot() == twin.cost.snapshot()
