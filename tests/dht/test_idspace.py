"""Tests for identifier-space arithmetic and the shared distinct-id draws."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import clockwise_distance
from repro.dht.chord.idspace import (
    id_to_point,
    in_open_closed,
    in_open_open,
    point_to_target_id,
)
from repro.dht.idspace import draw_distinct_ids, draw_sorted_ids

M = 10
SIZE = 1 << M
ids = st.integers(min_value=0, max_value=SIZE - 1)


class TestIdToPoint:
    def test_zero_maps_to_one(self):
        assert id_to_point(0, M) == 1.0

    def test_midpoint(self):
        assert id_to_point(SIZE // 2, M) == 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            id_to_point(SIZE, M)
        with pytest.raises(ValueError):
            id_to_point(-1, M)

    @given(ids)
    def test_always_on_circle(self, node_id):
        assert 0.0 < id_to_point(node_id, M) <= 1.0

    @given(ids, ids)
    def test_order_preserved(self, a, b):
        """Clockwise id distance equals clockwise point distance (scaled)."""
        pa, pb = id_to_point(a, M), id_to_point(b, M)
        id_dist = (b - a) % SIZE
        assert clockwise_distance(pa, pb) == pytest.approx(id_dist / SIZE)


class TestPointToTargetId:
    def test_rejects_out_of_circle(self):
        with pytest.raises(ValueError):
            point_to_target_id(0.0, M)
        with pytest.raises(ValueError):
            point_to_target_id(1.5, M)

    def test_one_maps_to_zero(self):
        assert point_to_target_id(1.0, M) == 0

    def test_exact_grid_point(self):
        assert point_to_target_id(0.5, M) == SIZE // 2

    @given(st.floats(min_value=1e-9, max_value=1.0, allow_nan=False))
    @settings(max_examples=300)
    def test_roundtrip_successor_semantics(self, x):
        """The target id's point is the clockwise-closest grid point to x."""
        target = point_to_target_id(x, M)
        point = id_to_point(target, M)
        d = clockwise_distance(x, point)
        assert d < 1.0 / SIZE  # within one grid cell

    @given(ids)
    def test_node_point_maps_to_itself(self, node_id):
        assert point_to_target_id(id_to_point(node_id, M), M) == node_id


class TestDrawIds:
    def test_distinct_ids_replay_the_rejection_loop(self):
        """Ids come in draw order; a taken or repeated candidate is
        skipped, and the next ``randrange`` replaces it."""
        taken = {3, 5, 8}
        got = draw_distinct_ids(random.Random(7), 4, 10, taken)
        replay, rng = [], random.Random(7)
        while len(replay) < 10:
            c = rng.randrange(16)
            if c not in taken and c not in replay:
                replay.append(c)
        assert got == replay
        assert len(set(got)) == 10 and not taken & set(got)

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(st.integers(min_value=3, max_value=32), st.sampled_from([33, 63, 64, 65, 160])),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    def test_bulk_draw_is_the_randrange_loop(self, m, seed, data):
        """The ids and the generator state after equal those of one
        ``randrange`` per candidate, the whole space included."""
        size = 1 << m
        taken = data.draw(
            st.sets(st.integers(min_value=0, max_value=size - 1), max_size=min(size // 2, 64)),
            label="taken",
        )
        most = min(size - len(taken), 3000)
        count = data.draw(st.integers(min_value=0, max_value=most) | st.just(most), label="count")
        drawn, looped = random.Random(seed), random.Random(seed)
        got = draw_distinct_ids(drawn, m, count, taken)
        want: list[int] = []
        seen: set[int] = set(taken)
        while len(want) < count:
            candidate = looped.randrange(size)
            if candidate not in seen:
                seen.add(candidate)
                want.append(candidate)
        assert got == want
        assert drawn.getstate() == looped.getstate()

    def test_distinct_ids_fill_the_whole_space(self):
        assert sorted(draw_distinct_ids(random.Random(1), 4, 16)) == list(range(16))
        with pytest.raises(ValueError):
            draw_distinct_ids(random.Random(1), 4, 17)

    @pytest.mark.parametrize("count", [1, 40, 1023])
    def test_sorted_ids_below_1024_are_the_loop_sorted(self, count):
        a, b = random.Random(count), random.Random(count)
        ids = draw_sorted_ids(a, 20, count)
        assert ids == sorted(draw_distinct_ids(b, 20, count))
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("m,count", [(20, 3000), (11, 2000)])  # (11, 2000) tops up
    def test_sorted_ids_in_bulk(self, m, count):
        rng = random.Random(count)
        ids = draw_sorted_ids(rng, m, count)
        assert isinstance(ids, np.ndarray) and len(ids) == count
        assert (np.diff(ids) > 0).all() and 0 <= ids[0] and ids[-1] < 1 << m
        assert np.array_equal(ids, draw_sorted_ids(random.Random(count), m, count))
        one_call = random.Random(count)
        one_call.randrange(1 << 63)  # the bulk draw takes one seed from rng
        assert rng.getstate() == one_call.getstate()


class TestIntervals:
    def test_open_closed_simple(self):
        assert in_open_closed(5, 3, 8)
        assert in_open_closed(8, 3, 8)
        assert not in_open_closed(3, 3, 8)
        assert not in_open_closed(9, 3, 8)

    def test_open_closed_wrapping(self):
        assert in_open_closed(1, 900, 10)
        assert in_open_closed(950, 900, 10)
        assert not in_open_closed(500, 900, 10)

    def test_open_closed_degenerate_is_full_ring(self):
        assert in_open_closed(123, 7, 7)
        assert in_open_closed(7, 7, 7)

    def test_open_open_simple(self):
        assert in_open_open(5, 3, 8)
        assert not in_open_open(8, 3, 8)
        assert not in_open_open(3, 3, 8)

    def test_open_open_wrapping(self):
        assert in_open_open(950, 900, 10)
        assert in_open_open(5, 900, 10)
        assert not in_open_open(10, 900, 10)

    def test_open_open_degenerate_excludes_only_endpoint(self):
        assert in_open_open(8, 7, 7)
        assert not in_open_open(7, 7, 7)

    @given(ids, ids, ids)
    def test_open_closed_matches_modular_arithmetic(self, x, a, b):
        if a == b:
            assert in_open_closed(x, a, b)
        else:
            expected = (x - a) % SIZE <= (b - a) % SIZE and x != a
            assert in_open_closed(x, a, b) == expected

    @given(ids, ids, ids)
    def test_open_open_is_open_closed_minus_endpoint(self, x, a, b):
        if a == b:
            assert in_open_open(x, a, b) == (x != a)
        else:
            assert in_open_open(x, a, b) == (in_open_closed(x, a, b) and x != b)
