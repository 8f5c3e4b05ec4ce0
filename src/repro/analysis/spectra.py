"""Spectral analysis of overlay graphs.

Gkantsidis et al. tie random-walk sampling quality to the second
eigenvalue of the walk's transition matrix; the paper's criticism is
that this eigenvalue is unknown in practice.  These utilities compute it
for simulated overlays so benchmark E8 can relate measured mixing to the
spectral gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..baselines.random_walk import WalkKind, _transition_matrix

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["SpectralReport", "spectral_report", "mixing_time_bound"]


@dataclass(frozen=True)
class SpectralReport:
    """Second-eigenvalue summary of one walk chain on one graph."""

    n: int
    kind: str
    second_eigenvalue: float  # lambda_2 = max non-principal |eigenvalue|
    spectral_gap: float  # 1 - lambda_2

    @property
    def relaxation_time(self) -> float:
        return math.inf if self.spectral_gap <= 0 else 1.0 / self.spectral_gap


def spectral_report(graph: nx.Graph, kind: WalkKind = "metropolis") -> SpectralReport:
    """Eigen-decompose the walk's transition matrix (dense; n <= ~3000)."""
    order = list(graph.nodes)
    p = _transition_matrix(graph, kind, order)
    eigenvalues = np.linalg.eigvals(p)
    magnitudes = np.sort(np.abs(eigenvalues))[::-1]
    lam2 = float(magnitudes[1]) if len(magnitudes) > 1 else 0.0
    return SpectralReport(
        n=len(order), kind=kind, second_eigenvalue=lam2, spectral_gap=1.0 - lam2
    )


def mixing_time_bound(report: SpectralReport, epsilon: float = 0.01) -> float:
    """Standard upper bound ``t_mix(eps) <= ln(n/eps) / gap`` on steps to
    come within ``eps`` TV of stationary."""
    if report.spectral_gap <= 0:
        return math.inf
    return math.log(report.n / epsilon) / report.spectral_gap
