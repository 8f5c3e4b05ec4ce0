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
from repro.core.engine import _WALK_SLAB
from repro.core.errors import SamplingError
from repro.core.sampler import TrialOutcome
from repro.dht.api import PeerUnreachableError


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


def _chord(
    seed: int, n: int, crashes: int = 0, mode: str = "iterative", warm: bool = False, m: int = 16
):
    net = ChordNetwork.build(n, m=m, rng=random.Random(seed))
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
    # bench_scale's id width: no id -> slot table, 32-bit targets.
    "chord-m32": lambda seed, n: _chord(seed, n, warm=True, m=32),
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
    "chord-m32": SUBSTRATES["chord-m32"],
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


def points_held(engine) -> int:
    """The points ``engine`` drew and has not committed: queued, and
    uncommitted in its block."""
    block = engine._block
    return len(engine._pending) + (len(block.points) - block.cursor if block else 0)


#: substrate name -> builder(seed, n) for the generator-state property.
STREAMS = {name: SUBSTRATES[name] for name in ("ideal", "chord-table", "chord-crashed")}


@pytest.mark.parametrize("substrate", sorted(STREAMS))
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("many", "scalar", "refresh", "trials") + tuple(sorted(RING_OPS))),
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=0, max_value=2**16),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=10, deadline=None)
def test_the_generator_has_drawn_every_point_held_or_used(substrate, n, seed, steps):
    # Blocks are drawn in bulk once large enough, a point at a time
    # otherwise; either way the generator must sit where a twin that
    # drew one point per trial committed, queued or still in the block
    # leaves it, so a scalar draw after any call reads the next point.
    dht = STREAMS[substrate](seed, n)
    sampler = RandomPeerSampler(dht, n_hat=float(n), rng=random.Random(seed))
    engine = sampler._engine
    used = 0
    for op, k, pick in steps:
        if op == "scalar":
            used += sampler.sample_with_stats().trials
        elif op == "refresh":
            sampler.refresh(max(1.0, n * (0.5 + pick % 5 / 2)))
        elif op == "trials":
            engine.trial_many([1.0 - random.Random(pick).random() for _ in range(k % 50)])
        elif op in RING_OPS and substrate != "ideal":
            RING_OPS[op](dht, pick)
        used += engine.sample_many_attributed(k).trials
        twin = random.Random(seed)
        for _ in range(used + points_held(engine)):
            twin.random()
        assert engine._rng.getstate() == twin.getstate()


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


@pytest.mark.parametrize("substrate", ["ideal", "chord-table"])
def test_a_large_call_leaves_at_most_one_slab_classified(substrate):
    # A call that classified far more points than it committed hands the
    # rest back to the queue as bare points, so what stays classified
    # between calls is bounded by one slab; the draws after it are still
    # the scalar loop's.
    make = SUBSTRATES[substrate]
    batched, twin = make(5, 400), make(5, 400)
    engine = BatchSampler(batched, n_hat=400.0, rng=random.Random(6))
    drawn = engine.sample_many(800)  # ~19,000 trials of a ~21,600-point block
    assert engine._block is None and len(engine._pending) > _WALK_SLAB
    for k in (2, 1, 40):
        drawn += engine.sample_many(k)
        block = engine._block
        assert block is None or len(block.points) - block.cursor <= _WALK_SLAB
    assert drawn == scalar_draws(twin, engine.params, 6, len(drawn))
    assert batched.cost.snapshot() == twin.cost.snapshot()


class _ChunkRecorder:
    """An engine tracer that records each chunk while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.rounds = []

    def on_round(self, index, trials, successes, cost=None):
        self.rounds.append((index, trials, successes, cost))


def _one_scalar_draw(reference: ScalarReference, budget: int):
    """The scalar loop's next draw within ``budget`` trials: ``(result,
    trials)``, with ``result`` None when no trial succeeded."""
    for trials in range(1, budget + 1):
        try:
            result = reference.sampler.trial(1.0 - reference.rng.random())
        except PeerUnreachableError:
            continue
        if result.peer is not None:
            return result, trials
    return None, budget


def _per_call(dht):
    """No walk view: every trial runs on its own (no block is classified)."""
    dht.walk_view = lambda: None
    return dht


#: substrate name -> builder(seed, n) for one-draw calls; the crashed
#: ring's lookups fail and its walks leave their certified runs, so
#: blocks hold uncertified rows.
ONE_DRAW = {
    **{name: SUBSTRATES[name] for name in ("ideal", "chord-table", "chord-crashed")},
    "chord-per-call": lambda seed, n: _per_call(_chord(seed, n, warm=True)),
}


@pytest.mark.parametrize("substrate", sorted(ONE_DRAW))
@given(
    n=st.integers(min_value=1, max_value=40),
    estimate=st.sampled_from([0.25, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31),
    max_trials=st.sampled_from([1, 2, 5, 10_000]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("none", "none", "refresh") + tuple(sorted(RING_OPS))),
            st.booleans(),
            st.integers(min_value=0, max_value=2**16),
        ),
        min_size=1,
        max_size=14,
    ),
)
@settings(max_examples=20, deadline=None)
def test_one_draw_calls_draw_the_scalar_sequence(substrate, n, estimate, seed, max_trials, steps):
    # What a served request runs: sample_many_attributed(1), call after
    # call.  A small max_trials cuts a chunk at the call's budget (the
    # call then raises, as the scalar loop gives up); a traced call
    # reports each chunk.  An underestimate of n widens lambda, so more
    # draws come from walk hits.
    make = ONE_DRAW[substrate]
    batched, twin = make(seed, n), make(seed, n)
    tracer = _ChunkRecorder()
    engine = BatchSampler(
        batched,
        n_hat=max(1.0, estimate * n),
        rng=random.Random(seed),
        max_trials=max_trials,
        tracer=tracer,
    )
    reference = ScalarReference(twin, engine.params, seed)
    for op, traced, pick in steps:
        if op == "refresh":
            n_hat = max(1.0, n * (0.5 + pick % 5 / 2))
            engine.refresh(n_hat)
            reference.sampler.refresh(n_hat)
        elif op in RING_OPS and substrate != "ideal":
            RING_OPS[op](batched, pick)
            RING_OPS[op](twin, pick)
        tracer.active = traced
        tracer.rounds.clear()
        before = twin.cost.snapshot()
        expected, trials = _one_scalar_draw(reference, max_trials)
        if expected is None:
            with pytest.raises(SamplingError):
                engine.sample_many_attributed(1)
        else:
            result = engine.sample_many_attributed(1)
            assert result.peers == (expected.peer,)
            assert result.trials == trials
            assert result.walk_hits == int(expected.outcome is TrialOutcome.WALK_HIT)
            assert result.cost == twin.cost.snapshot() - before
            if traced:
                assert len(tracer.rounds) == result.rounds
                assert sum(r[1] for r in tracer.rounds) == trials
                assert sum(r[2] for r in tracer.rounds) == 1
        assert batched.cost.snapshot() == twin.cost.snapshot()
        if not traced:
            assert tracer.rounds == []
