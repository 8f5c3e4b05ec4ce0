"""Committee sampling for scalable Byzantine agreement (motivation 2, [8]).

Lewis & Saia's scalable Byzantine agreement elects small committees of
uniformly random peers; safety needs every committee's Byzantine share
below a threshold (canonically 1/3).  Uniform sampling gives the
hypergeometric/binomial guarantees computed here; the naive sampler lets
an adversary position its peers after long arcs and get picked far more
often, which :func:`empirical_committee_failure` exposes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "CommitteeSpec",
    "committee_failure_probability",
    "empirical_committee_failure",
]


@dataclass(frozen=True)
class CommitteeSpec:
    """A committee election: size and maximum tolerable Byzantine share."""

    size: int
    threshold: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("committee size must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")

    @property
    def max_byzantine(self) -> int:
        """Largest Byzantine head-count the committee tolerates."""
        return math.ceil(self.threshold * self.size) - 1


def committee_failure_probability(
    n: int, byzantine: int, spec: CommitteeSpec
) -> float:
    """Exact failure probability under uniform sampling *with* replacement.

    Each member is an independent uniform draw, so the Byzantine count is
    Binomial(size, byzantine/n); failure is exceeding the tolerance.
    """
    if not 0 <= byzantine <= n:
        raise ValueError("byzantine count must lie in [0, n]")
    import scipy.stats as sps

    p = byzantine / n
    return float(sps.binom.sf(spec.max_byzantine, spec.size, p))


def empirical_committee_failure(
    sampler,
    is_byzantine,
    spec: CommitteeSpec,
    elections: int,
    rng: random.Random | None = None,
) -> float:
    """Fraction of sampled committees whose Byzantine share breaks ``spec``.

    ``sampler.sample()`` supplies members (with replacement, as in the
    analysis); ``is_byzantine(peer) -> bool`` marks adversarial peers.
    """
    if elections < 1:
        raise ValueError("need at least one election")
    failures = 0
    for _ in range(elections):
        bad = sum(1 for _ in range(spec.size) if is_byzantine(sampler.sample()))
        if bad > spec.max_byzantine:
            failures += 1
    return failures / elections
