"""Statistical machinery for evaluating samplers.

Uniformity is judged three ways: total-variation distance to uniform,
chi-square goodness of fit, and the max/min selection ratio the paper
uses to quantify the naive heuristic's bias.  Estimation helpers
(Wilson and normal confidence intervals) back the data-collection
application.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "empirical_distribution",
    "total_variation",
    "total_variation_from_uniform",
    "kl_divergence",
    "ChiSquareResult",
    "chi_square_uniform",
    "max_min_ratio",
    "wilson_interval",
    "mean_confidence_interval",
]


def empirical_distribution(samples: Iterable, support: Sequence) -> dict:
    """Relative frequencies of ``samples`` over an explicit ``support``.

    Unseen support elements get probability 0; samples outside the
    support raise, because that always indicates an experiment bug.
    """
    support_set = set(support)
    counts: Counter = Counter()
    total = 0
    for s in samples:
        if s not in support_set:
            raise ValueError(f"sample {s!r} outside the declared support")
        counts[s] += 1
        total += 1
    if total == 0:
        raise ValueError("no samples given")
    return {x: counts.get(x, 0) / total for x in support}


def total_variation(p: Mapping, q: Mapping) -> float:
    """``TV(p, q) = (1/2) sum |p(x) - q(x)|`` over the union support."""
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def total_variation_from_uniform(p: Mapping) -> float:
    """TV distance between ``p`` and uniform over ``p``'s support."""
    n = len(p)
    if n == 0:
        raise ValueError("empty distribution")
    u = 1.0 / n
    return 0.5 * math.fsum(abs(v - u) for v in p.values())


def kl_divergence(p: Mapping, q: Mapping) -> float:
    """``KL(p || q)`` in nats; infinite when ``p`` has mass where ``q`` has none."""
    out = 0.0
    for k, pv in p.items():
        if pv == 0.0:
            continue
        qv = q.get(k, 0.0)
        if qv == 0.0:
            return math.inf
        out += pv * math.log(pv / qv)
    return out


@dataclass(frozen=True)
class ChiSquareResult:
    """Chi-square goodness-of-fit against the uniform distribution."""

    statistic: float
    p_value: float
    dof: int

    def rejects_uniformity(self, alpha: float = 0.01) -> bool:
        """Whether uniformity is rejected at significance ``alpha``."""
        return self.p_value < alpha


def chi_square_uniform(counts: Sequence[int]) -> ChiSquareResult:
    """Chi-square test of observed counts against equal expectation."""
    counts = list(counts)
    if len(counts) < 2:
        raise ValueError("need at least two categories")
    if min(counts) < 0:
        raise ValueError("counts must be non-negative")
    if sum(counts) == 0:
        raise ValueError("need at least one observation")
    import scipy.stats as sps

    statistic, p_value = sps.chisquare(counts)
    return ChiSquareResult(
        statistic=float(statistic), p_value=float(p_value), dof=len(counts) - 1
    )


def max_min_ratio(probabilities: Sequence[float]) -> float:
    """``max(p) / min(p)`` -- the paper's bias measure (Theta(n log n) naive)."""
    lo = min(probabilities)
    hi = max(probabilities)
    if lo <= 0.0:
        return math.inf
    return hi / lo


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    import scipy.stats as sps

    z = sps.norm.ppf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float, float]:
    """``(mean, low, high)`` using the t distribution."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two observations")
    import scipy.stats as sps

    mean = float(arr.mean())
    sem = float(sps.sem(arr))
    if sem == 0.0:
        return (mean, mean, mean)
    low, high = sps.t.interval(confidence, arr.size - 1, loc=mean, scale=sem)
    return (mean, float(low), float(high))
