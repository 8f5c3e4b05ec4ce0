"""Choose-Random-Peer (Figure 1 of the paper): exact uniform peer sampling.

The circle is implicitly partitioned so that every peer owns intervals of
total measure exactly ``lambda = 1 / (7 n')`` where ``n' = n_hat / gamma_1``
upper-bounds ``n`` w.h.p.  Each *trial* draws ``s`` uniform on ``(0, 1]``:

- if the interval from ``s`` to ``l(h(s))`` is *small* (< lambda), the
  trial succeeds with ``h(s)`` -- that peer's private lambda-sliver
  directly counterclockwise of its point;
- otherwise the algorithm walks clockwise via ``next`` accumulating
  ``T = d(s, .) - lambda * (peers passed)``, returning the first peer at
  which ``T <= 0`` -- a supplementary interval donated by the long
  peerless arcs behind it;
- if ``T`` stays positive for ``ceil(6 ln n')`` hops, ``s`` fell in
  unassigned slack and the trial fails.

Failed trials are retried with fresh randomness; successes are exactly
uniform over peers (Theorem 6) and the expected number of trials is at
most ``7 n' / n = O(1)`` (Theorem 7).

Interpretation note (see DESIGN.md): the paper's text sets
``lambda = 1/(7 n_hat)`` but immediately claims ``lambda <= 1/(7n)``,
which requires dividing by the *upper* bound ``n'``; we implement
``lambda = 1/(7 n')``.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from ..dht.api import DHT, CostSnapshot, PeerRef
from .estimate import DEFAULT_C1, estimate_n
from .intervals import clockwise_distance

__all__ = [
    "TrialOutcome",
    "TrialResult",
    "SampleStats",
    "SamplerParams",
    "RandomPeerSampler",
    "choose_random_peer",
    "GAMMA1",
    "GAMMA2",
    "LAMBDA_SLACK",
]

#: Lower/upper approximation constants of Lemma 3: w.h.p.
#: ``GAMMA1 * n <= n_hat <= GAMMA2 * n``.
GAMMA1 = 2.0 / 7.0
GAMMA2 = 6.0

#: The paper's ``7`` in ``lambda = 1 / (7 n')``.  Larger slack shortens
#: walks but lowers per-trial success probability (ablated in bench E6).
LAMBDA_SLACK = 7.0


class TrialOutcome(enum.Enum):
    """How a single trial of Choose-Random-Peer ended."""

    SMALL_HIT = "small-hit"  # line 2: I(s, l(h(s))] was small
    WALK_HIT = "walk-hit"  # line 3: T went non-positive during the walk
    EXHAUSTED = "exhausted"  # walk budget spent with T still positive


@dataclass(frozen=True, slots=True)
class TrialResult:
    """One deterministic trial: the drawn point, outcome, and walk length."""

    s: float
    outcome: TrialOutcome
    peer: PeerRef | None
    walk_hops: int


def _trial_from_first(dht: DHT, lam: float, walk_budget: int, s: float, first: PeerRef) -> TrialResult:
    """Figure 1 for point ``s`` given an already-resolved ``first = h(s)``.

    Shared by the scalar :meth:`RandomPeerSampler.trial` and the batch
    engine's per-call fallback path, so both run byte-identical float
    arithmetic and cannot drift apart.
    """
    arc = clockwise_distance(s, first.point)
    if arc < lam:  # line 2: the interval I(s, l(h(s))] is SMALL
        return TrialResult(s=s, outcome=TrialOutcome.SMALL_HIT, peer=first, walk_hops=0)

    t_value = arc - lam
    hops = 0
    for _ in range(walk_budget):
        nxt = dht.next(first)
        hops += 1
        step = clockwise_distance(first.point, nxt.point)
        if nxt.peer_id == first.peer_id:
            step = 1.0  # a self-successor means a full lap of the circle
        t_value += step - lam
        if t_value <= 0.0:
            return TrialResult(s=s, outcome=TrialOutcome.WALK_HIT, peer=nxt, walk_hops=hops)
        first = nxt
    return TrialResult(s=s, outcome=TrialOutcome.EXHAUSTED, peer=None, walk_hops=hops)


@dataclass(frozen=True)
class SampleStats:
    """Accounting for one successful sample (possibly after retries)."""

    peer: PeerRef
    trials: int
    outcome: TrialOutcome
    walk_hops_total: int
    cost: CostSnapshot


@dataclass(frozen=True, slots=True)
class SamplerParams:
    """Resolved parameters of the sampler, derived from ``n_hat``.

    ``lam`` is the per-peer measure; ``walk_budget`` the ``ceil(6 ln n')``
    hop cap of Figure 1.
    """

    n_hat: float
    n_prime: float
    lam: float
    walk_budget: int

    @classmethod
    def from_estimate(
        cls,
        n_hat: float,
        gamma1: float = GAMMA1,
        lambda_slack: float = LAMBDA_SLACK,
    ) -> "SamplerParams":
        if n_hat < 1.0:
            raise ValueError(f"n_hat must be >= 1, got {n_hat!r}")
        if not 0.0 < gamma1 <= 1.0:
            raise ValueError(f"gamma1 must be in (0, 1], got {gamma1!r}")
        if lambda_slack <= 1.0:
            raise ValueError(f"lambda_slack must exceed 1, got {lambda_slack!r}")
        n_prime = n_hat / gamma1
        lam = 1.0 / (lambda_slack * n_prime)
        walk_budget = max(1, math.ceil(6.0 * math.log(max(n_prime, math.e))))
        return cls(n_hat=n_hat, n_prime=n_prime, lam=lam, walk_budget=walk_budget)


class RandomPeerSampler:
    """Uniform peer sampling over any :class:`~repro.dht.api.DHT`.

    Parameters
    ----------
    dht:
        The substrate providing ``h``/``next``.
    n_hat:
        A constant-factor size estimate.  When omitted, Estimate-n is run
        once from ``dht.any_peer()`` (costing ``O(log n)`` messages).
    gamma1, lambda_slack, c1:
        Tuning constants; the defaults are the paper's.
    rng:
        Source of the trial points ``s``; defaults to a fresh
        ``random.Random()``.
    max_trials:
        Hard cap on rejection-sampling retries before
        :class:`~repro.core.errors.SamplingError` is raised.  The success
        probability per trial is at least ``n * lam >= gamma1 / (7 gamma2)``
        w.h.p., so the default of 10_000 is astronomically safe.
    """

    def __init__(
        self,
        dht: DHT,
        n_hat: float | None = None,
        *,
        gamma1: float = GAMMA1,
        lambda_slack: float = LAMBDA_SLACK,
        c1: float = DEFAULT_C1,
        rng: random.Random | None = None,
        max_trials: int = 10_000,
    ):
        if max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        self._dht = dht
        self._rng = rng if rng is not None else random.Random()
        if n_hat is None:
            n_hat = estimate_n(dht, c1=c1).n_hat
        self.params = SamplerParams.from_estimate(
            n_hat, gamma1=gamma1, lambda_slack=lambda_slack
        )
        self._max_trials = max_trials
        from .engine import BatchSampler  # engine imports this module

        #: The rejection loop every draw runs through (the batch engine at
        #: any ``k``); it shares this sampler's parameters and rng.
        self._engine = BatchSampler(
            dht,
            params=self.params,
            gamma1=gamma1,
            lambda_slack=lambda_slack,
            c1=c1,
            rng=self._rng,
            max_trials=max_trials,
        )

    @property
    def stale_trials(self) -> int:
        """Trials lost to transient peer unreachability (see
        :meth:`sample_with_stats`); nonzero only on churning overlays."""
        return self._engine.stale_trials

    # -- parameter lifecycle ----------------------------------------------

    def refresh(self, n_hat: float | None = None) -> SamplerParams:
        """Re-derive sampling parameters from a fresh size estimate.

        On a *dynamic* network the construction-time ``n_hat`` goes stale
        as peers join and leave; a stale estimate inflates trial counts
        (population grew: walk budget too short) or walk lengths
        (population shrank: lambda too small).  Re-runs Estimate-n
        against the substrate (or adopts an explicit ``n_hat``) and
        rebuilds :attr:`params`, in this sampler and in place in its
        engine, whose queued trial points stay valid.  Returns the new
        params.
        """
        self.params = self._engine.refresh(n_hat)
        return self.params

    # -- the deterministic inner trial (Figure 1) -------------------------

    def trial(self, s: float) -> TrialResult:
        """Run Figure 1 once for the given point ``s`` (no retries).

        Exposed separately so tests and the exact-assignment analysis can
        drive the deterministic part of the algorithm directly.
        """
        return _trial_from_first(
            self._dht, self.params.lam, self.params.walk_budget, s, self._dht.h(s)
        )

    # -- public sampling API ----------------------------------------------

    def sample_with_stats(self) -> SampleStats:
        """Draw one uniform peer, returning full trial/cost accounting.

        The batch engine's rejection loop at ``k = 1``: trials in draw
        order up to the first success, each charged as it runs.  A trial
        that dies of transient peer unreachability (a crash mid-walk on
        a churning overlay) counts as a failed trial and is redrawn; only
        the trial-budget exhaustion escalates to
        :class:`~repro.core.errors.SamplingError`.
        """
        result = self._engine.sample_many_attributed(1)
        return SampleStats(
            peer=result.peers[0],
            trials=result.trials,
            outcome=TrialOutcome.WALK_HIT if result.walk_hits else TrialOutcome.SMALL_HIT,
            walk_hops_total=result.cost.next_calls,
            cost=result.cost,
        )

    def sample(self) -> PeerRef:
        """Draw one peer uniformly at random from the DHT."""
        return self.sample_with_stats().peer

    def sample_many(self, k: int) -> list[PeerRef]:
        """Draw ``k`` independent uniform samples (with replacement),
        in one call of the batch engine (one meter charge per round)."""
        return self._engine.sample_many(k)

    def sample_distinct(self, k: int, max_draws: int | None = None) -> list[PeerRef]:
        """Draw ``k`` *distinct* peers, uniform over k-subsets.

        Implemented by rejecting repeats, so the result is a uniformly
        random k-subset (sequential simple random sampling).  Expected
        draws are ``k`` plus a coupon-collector correction that stays
        small while ``k`` is well below ``n``.  Raises
        :class:`~repro.core.errors.SamplingError` if ``max_draws``
        (default ``50 k + 50``) pass without finding ``k`` distinct
        peers -- the symptom of requesting ``k > n``.
        """
        return self._engine.sample_distinct(k, max_draws=max_draws)


def choose_random_peer(
    dht: DHT,
    n_hat: float | None = None,
    rng: random.Random | None = None,
    **kwargs,
) -> PeerRef:
    """One-shot convenience wrapper around :class:`RandomPeerSampler`.

    Prefer constructing a sampler once and reusing it when drawing many
    samples: the size estimate is then paid for a single time.
    """
    return RandomPeerSampler(dht, n_hat, rng=rng, **kwargs).sample()
