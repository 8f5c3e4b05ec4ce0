"""Tests for the first-class retry/backoff policy."""

from __future__ import annotations

import random

import pytest

from repro.faults.retry import RetryPolicy


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.attempts == 3
        assert policy.retries == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay": -1.0},
            {"max_delay": -0.5},
            {"factor": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_canned_policies(self):
        assert RetryPolicy.none().attempts == 1
        fixed = RetryPolicy.fixed(4, 0.25)
        assert (fixed.attempts, fixed.base_delay, fixed.factor) == (4, 0.25, 1.0)
        exp = RetryPolicy.exponential(5, 0.5, jitter=0.2)
        assert (exp.attempts, exp.factor, exp.jitter) == (5, 2.0, 0.2)

    def test_record_round_trip(self):
        policy = RetryPolicy(attempts=2, base_delay=0.5, jitter=0.1)
        assert RetryPolicy(**policy.to_record()) == policy


class TestDiscipline:
    def test_should_retry_is_attempt_budget(self):
        policy = RetryPolicy(attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(attempts=9, base_delay=1.0, factor=2.0, max_delay=5.0)
        assert [policy.delay(f) for f in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]

    def test_flat_policy_matches_legacy_backoff(self):
        # The legacy service loop waited a constant retry_backoff; the
        # equivalent policy is factor=1 with that base delay.
        policy = RetryPolicy(attempts=4, base_delay=0.75, factor=1.0)
        assert [policy.delay(f) for f in (1, 2, 3)] == [0.75, 0.75, 0.75]

    def test_failure_index_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_jitter_free_policy_never_consumes_rng(self):
        rng = random.Random(1)
        before = rng.getstate()
        RetryPolicy(attempts=3, base_delay=1.0).delay(2, rng)
        assert rng.getstate() == before

    def test_zero_delay_never_consumes_rng_even_with_jitter(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert RetryPolicy(attempts=3, base_delay=0.0, jitter=0.5).delay(1, rng) == 0.0
        assert rng.getstate() == before

    def test_jitter_bounds_and_determinism(self):
        policy = RetryPolicy(attempts=3, base_delay=2.0, factor=1.0, jitter=0.25)
        delays = [policy.delay(1, random.Random(s)) for s in range(50)]
        assert all(1.5 <= d <= 2.5 for d in delays)
        assert len(set(delays)) > 1  # jitter actually spreads
        again = [policy.delay(1, random.Random(s)) for s in range(50)]
        assert delays == again  # seeded, bit-identical

    def test_jittered_policy_demands_an_rng(self):
        with pytest.raises(ValueError, match="seeded rng"):
            RetryPolicy(attempts=2, base_delay=1.0, jitter=0.5).delay(1, None)


class TestDeadlineBudget:
    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=-1.0)
        assert RetryPolicy().deadline is None  # unbounded by default

    def test_within_deadline_semantics(self):
        unbounded = RetryPolicy()
        assert unbounded.within_deadline(1e9)
        bounded = RetryPolicy(deadline=10.0)
        assert bounded.within_deadline(9.999)
        assert not bounded.within_deadline(10.0)

    def test_deadline_round_trips_through_record(self):
        policy = RetryPolicy(attempts=2, deadline=12.5)
        assert RetryPolicy(**policy.to_record()) == policy


def failing_call(policy: RetryPolicy, timeout: float, rng=None):
    """Drive ``backoff`` for a call whose every attempt fails after
    ``timeout``: returns (failures, waits taken, time spent)."""
    failure, spent, waits = 0, 0.0, []
    while True:
        failure += 1
        spent += timeout
        wait = policy.backoff(failure, spent, rng)
        if wait is None:
            return failure, waits, spent
        waits.append(wait)
        spent += wait


class TestBackoff:
    """``backoff`` is the one retry decision of the DHT adapters and the
    fault lab's async probe: the wait before the next attempt, or None."""

    def test_attempt_budget(self):
        policy = RetryPolicy(attempts=3, base_delay=0.5, factor=2.0)
        assert policy.backoff(1, 0.0) == 0.5
        assert policy.backoff(2, 0.0) == 1.0
        assert policy.backoff(3, 0.0) is None
        assert failing_call(policy, 8.0) == (3, [0.5, 1.0], 3 * 8.0 + 0.5 + 1.0)

    def test_single_attempt_never_retries(self):
        assert RetryPolicy.none().backoff(1, 0.0) is None

    def test_deadline_stops_when_the_next_wait_would_reach_it(self):
        # timeout 8, flat wait 1, deadline 18: the first failure has spent
        # 8 and waits (8 + 1 < 18); the second has spent 17 and the next
        # wait would reach the budget (17 + 1 >= 18), so the remaining
        # three attempts are abandoned.
        policy = RetryPolicy(attempts=5, base_delay=1.0, factor=1.0, deadline=18.0)
        assert failing_call(policy, 8.0) == (2, [1.0], 17.0)

    def test_deadline_stops_once_spent_reaches_it(self):
        # timeout 4, flat wait 2, deadline 9: the first failure waits
        # (4 + 2 < 9); the second has spent 10 >= 9.
        policy = RetryPolicy(attempts=5, base_delay=2.0, factor=1.0, deadline=9.0)
        assert failing_call(policy, 4.0) == (2, [2.0], 10.0)
        assert policy.backoff(1, 9.0) is None

    def test_ample_deadline_leaves_the_attempt_budget(self):
        generous = RetryPolicy(attempts=3, base_delay=0.5, deadline=1e6)
        assert failing_call(generous, 8.0) == (3, [0.5, 1.0], 3 * 8.0 + 0.5 + 1.0)

    def test_jitter_free_policy_consumes_no_rng(self):
        rng = random.Random(1)
        before = rng.getstate()
        policy = RetryPolicy(attempts=4, base_delay=1.0, deadline=30.0)
        failing_call(policy, 8.0, rng)
        assert rng.getstate() == before

    def test_jittered_policy_draws_once_per_wait_as_delay_does(self):
        policy = RetryPolicy(attempts=4, base_delay=1.0, factor=1.0, jitter=0.3)
        failures, waits, _ = failing_call(policy, 8.0, random.Random(5))
        twin = random.Random(5)
        assert waits == [policy.delay(f, twin) for f in range(1, failures)]
        assert len(waits) == 3

    def test_jitter_is_drawn_after_the_budget_checks(self):
        # Out of attempts, or out of time already: no draw.  Only the
        # comparison of spent plus the wait comes after the draw.
        policy = RetryPolicy(attempts=2, base_delay=1.0, jitter=0.3, deadline=10.0)
        rng = random.Random(1)
        before = rng.getstate()
        assert policy.backoff(2, 0.0, rng) is None
        assert policy.backoff(1, 10.0, rng) is None
        assert rng.getstate() == before
        assert policy.backoff(1, 9.5, rng) is None  # 9.5 + ~1 >= 10
        assert rng.getstate() != before
