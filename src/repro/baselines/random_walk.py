"""Random-walk peer sampling (Gkantsidis, Mihail & Saberi [5]).

The only prior approach the paper compares against: walk the overlay
graph for ``t`` steps and return the endpoint.  A *simple* random walk
converges to the degree-biased stationary distribution, not uniform; the
*Metropolis-Hastings* and *max-degree* corrections converge to uniform,
but only asymptotically in ``t`` and at a rate governed by the graph's
spectral gap -- which is exactly the paper's criticism.  Benchmark E8
measures total-variation distance versus walk length against the
King--Saia sampler's exact uniformity.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "WalkKind",
    "RandomWalkSampler",
    "walk_distribution",
    "stationary_distribution",
]

WalkKind = str  # "simple" | "metropolis" | "max-degree"
_KINDS = ("simple", "metropolis", "max-degree")


class RandomWalkSampler:
    """Sample peers by walking ``steps`` hops over the overlay graph.

    ``kind``:

    - ``"simple"``: uniform over neighbours; stationary distribution is
      proportional to degree (biased);
    - ``"metropolis"``: Metropolis-Hastings with a uniform target --
      move to a proposed neighbour ``v`` with probability
      ``min(1, deg(u)/deg(v))``, else stay;
    - ``"max-degree"``: pad every node to degree ``d_max`` with
      self-loops; uniform stationary distribution.
    """

    def __init__(
        self,
        graph: nx.Graph,
        steps: int,
        kind: WalkKind = "metropolis",
        rng: random.Random | None = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if graph.number_of_nodes() == 0:
            raise ValueError("graph has no nodes")
        if any(d == 0 for _, d in graph.degree()):
            raise ValueError("graph has isolated nodes; walks would strand")
        self._graph = graph
        self._steps = steps
        self._kind = kind
        self._rng = rng if rng is not None else random.Random()
        self._max_degree = max(d for _, d in graph.degree())
        self._neighbors = {u: list(graph.neighbors(u)) for u in graph.nodes}

    def step(self, node: Hashable) -> Hashable:
        """One transition of the chosen walk from ``node``."""
        neighbors = self._neighbors[node]
        if self._kind == "simple":
            return self._rng.choice(neighbors)
        if self._kind == "metropolis":
            proposal = self._rng.choice(neighbors)
            accept = min(1.0, len(neighbors) / len(self._neighbors[proposal]))
            return proposal if self._rng.random() < accept else node
        # max-degree: with prob deg/d_max move, else self-loop
        if self._rng.random() < len(neighbors) / self._max_degree:
            return self._rng.choice(neighbors)
        return node

    def sample(self, start: Hashable) -> Hashable:
        """Walk ``steps`` hops from ``start`` and return the endpoint."""
        node = start
        for _ in range(self._steps):
            node = self.step(node)
        return node

    def sample_many(self, start: Hashable, k: int) -> list[Hashable]:
        return [self.sample(start) for _ in range(k)]


def _transition_matrix(graph: nx.Graph, kind: WalkKind, order: Sequence) -> np.ndarray:
    """Row-stochastic transition matrix of the chosen walk."""
    index = {u: i for i, u in enumerate(order)}
    n = len(order)
    p = np.zeros((n, n))
    degrees = dict(graph.degree())
    d_max = max(degrees.values())
    for u in order:
        i = index[u]
        du = degrees[u]
        for v in graph.neighbors(u):
            j = index[v]
            if kind == "simple":
                p[i, j] = 1.0 / du
            elif kind == "metropolis":
                p[i, j] = (1.0 / du) * min(1.0, du / degrees[v])
            else:  # max-degree
                p[i, j] = 1.0 / d_max
        p[i, i] = 1.0 - p[i].sum() + p[i, i]
    return p


def walk_distribution(
    graph: nx.Graph, kind: WalkKind, steps: int, start: Hashable
) -> dict[Hashable, float]:
    """Exact endpoint distribution of a ``steps``-hop walk from ``start``.

    Computed by repeated vector-matrix products, so it is exact (no
    Monte-Carlo noise); practical for graphs up to a few thousand nodes.
    """
    order = list(graph.nodes)
    p = _transition_matrix(graph, kind, order)
    dist = np.zeros(len(order))
    dist[order.index(start)] = 1.0
    for _ in range(steps):
        dist = dist @ p
    return {u: float(dist[i]) for i, u in enumerate(order)}


def stationary_distribution(graph: nx.Graph, kind: WalkKind) -> dict[Hashable, float]:
    """The walk's limiting distribution (degree-biased or uniform)."""
    if kind == "simple":
        total = 2.0 * graph.number_of_edges()
        return {u: d / total for u, d in graph.degree()}
    n = graph.number_of_nodes()
    return {u: 1.0 / n for u in graph.nodes}
