"""Closed-form theory for uniform spacings and the sampler's costs.

For ``n`` i.i.d. uniform points on the circle the ``n`` arcs are uniform
spacings, for which classical exact results exist:

- ``E[min arc] = 1/n^2`` (exactly), matching Theorem 8's lower scale;
- ``E[max arc] = H_n / n`` (harmonic number), matching the
  ``Theta(log n / n)`` longest-arc scale the paper cites from [16];
- the naive heuristic's expected extreme-bias ratio is therefore on the
  order of ``n * H_n`` -- the ``Theta(n log n)`` of the introduction.

For the sampler, the per-trial success probability is ``n * lambda``
and trials are geometric, giving the closed-form expected trial and
message counts asserted by Theorem 7.
"""

from __future__ import annotations

import math

from ..core.sampler import SamplerParams

__all__ = [
    "harmonic",
    "expected_min_arc",
    "expected_max_arc",
    "expected_naive_bias",
    "expected_trials",
    "expected_messages_per_sample",
]


def harmonic(n: int) -> float:
    """The ``n``-th harmonic number ``H_n`` (exact sum for small ``n``,
    asymptotic expansion beyond)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 10_000:
        return math.fsum(1.0 / k for k in range(1, n + 1))
    # Euler-Maclaurin: H_n = ln n + gamma + 1/(2n) - 1/(12n^2) + ...
    gamma = 0.5772156649015329
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n)


def expected_min_arc(n: int) -> float:
    """``E[min arc] = 1/n^2`` exactly for uniform spacings."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1.0 / (n * n)


def expected_max_arc(n: int) -> float:
    """``E[max arc] = H_n / n`` exactly for uniform spacings."""
    if n < 1:
        raise ValueError("n must be positive")
    return harmonic(n) / n


def expected_naive_bias(n: int) -> float:
    """First-order expected extreme-bias ratio ``E[max]/E[min] = n H_n``.

    (The expectation of the *ratio* is larger -- the reciprocal of the
    minimum is heavy-tailed -- so treat this as the scale, not the mean.)
    """
    return n * harmonic(n)


def expected_trials(n: int, params: SamplerParams) -> float:
    """``E[trials] = 1/(n lambda)`` when the assignment is exact (Thm 7)."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1.0 / (n * params.lam)


def expected_messages_per_sample(
    n: int, params: SamplerParams, m_h: float | None = None
) -> float:
    """First-order expected messages per successful sample.

    Each trial pays one ``h`` (``m_h`` messages, default ``log2 n``).  A
    walk is cut once no hop left can bring ``T`` to zero, so a trial
    from ``s`` passes at most the peers in ``(s, s + (budget + 1)
    lambda]``: ``n (budget + 1) lambda`` ``next`` calls in expectation.
    Over the ``1 / (n lambda)`` expected trials that is at most
    ``budget + 1`` hops per sample, whatever ``n``.
    """
    if m_h is None:
        m_h = math.log2(max(2, n))
    return expected_trials(n, params) * m_h + (params.walk_budget + 1)
