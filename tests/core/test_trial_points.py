"""The engine's trial points: drawn in bulk, exactly the scalar loop's.

A trial's point is ``1.0 - rng.random()``.  A block's fresh points are
read from the generator in one ``getrandbits`` call and decoded with
array arithmetic (:func:`repro.core.engine._fresh_points`); the values,
and the generator's state after, must be those of the loop, or every
draw after the first block moves.  The engine-level property (the
generator sits where the points the engine holds or used leave it) is
in ``test_engine_equivalence.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import IdealDHT
from repro.core.engine import _BULK_DRAW, BatchSampler, _fresh_points


def loop_points(rng, k: int) -> list[float]:
    """The scalar loop's ``k`` trial points."""
    return [1.0 - rng.random() for _ in range(k)]


#: Calls made on a generator before the points are drawn: ``0`` is a
#: ``random()`` call, ``w > 0`` a ``getrandbits(w)`` call (which moves
#: the generator by ``ceil(w / 32)`` words, so a draw can start at any
#: word of the state).
PRIOR = st.lists(st.integers(min_value=0, max_value=100), max_size=6)


def advance(rng, prior) -> None:
    for w in prior:
        if w:
            rng.getrandbits(w)
        else:
            rng.random()


@given(
    seed=st.integers(min_value=0, max_value=2**64),
    prior=PRIOR,
    k=st.integers(min_value=0, max_value=5_000),
)
@example(seed=0, prior=[], k=0)
@example(seed=1, prior=[], k=_BULK_DRAW - 1)
@example(seed=2, prior=[], k=_BULK_DRAW)
@example(seed=3, prior=[33], k=5_000)
@settings(max_examples=60, deadline=None)
def test_fresh_points_are_the_loops_values_and_end_state(seed, prior, k):
    rng, twin = random.Random(seed), random.Random(seed)
    advance(rng, prior)
    advance(twin, prior)
    points = _fresh_points(rng, k)
    assert points.dtype == np.float64 and points.shape == (k,)
    assert points.tolist() == loop_points(twin, k)  # bit for bit
    assert rng.getstate() == twin.getstate()


class _HalvedRandom(random.Random):
    """A generator whose ``random()`` is not the base class's."""

    def random(self):
        return super().random() / 2


class _FlippedBits(random.Random):
    """A generator whose ``getrandbits`` is not the base class's."""

    def getrandbits(self, k):
        return super().getrandbits(k) ^ 1


@pytest.mark.parametrize("cls", [_HalvedRandom, _FlippedBits])
@pytest.mark.parametrize("k", [1, _BULK_DRAW, 3_000])
def test_a_generator_that_overrides_either_method_gets_the_loop(cls, k):
    rng, twin = cls(5), cls(5)
    assert _fresh_points(rng, k).tolist() == loop_points(twin, k)
    assert rng.getstate() == twin.getstate()


def test_system_random_is_read_through_its_own_random():
    points = _fresh_points(random.SystemRandom(), 3_000)
    assert len(points) == 3_000 and ((points > 0.0) & (points <= 1.0)).all()


def test_an_engine_on_a_subclassed_generator_draws_its_stream():
    # A block large enough to be drawn in bulk: the engine must still
    # read the subclass's random(), as the scalar loop does.
    dht = IdealDHT.random(400, random.Random(8))
    engine = BatchSampler(dht, n_hat=400.0, rng=_HalvedRandom(9))
    twin = _HalvedRandom(9)
    result = engine.sample_many_attributed(40)
    block = engine._block
    held = len(engine._pending) + (len(block.points) - block.cursor if block else 0)
    assert result.trials + held > _BULK_DRAW
    loop_points(twin, result.trials + held)
    assert engine._rng.getstate() == twin.getstate()
