"""Random-link overlays and fault tolerance (motivation 3).

A network where every node keeps a few links to *uniformly random*
peers stays well connected under massive adversarial deletion
(Motwani & Raghavan [11]).  Links drawn with the *naive* biased sampler
concentrate on long-arc peers, creating hubs whose removal shatters the
graph.  Benchmark E9 quantifies the difference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_random_link_overlay", "RobustnessPoint", "deletion_robustness"]


def build_random_link_overlay(sampler, n_nodes: int, links_per_node: int) -> nx.Graph:
    """Every node draws ``links_per_node`` neighbours from ``sampler``.

    ``sampler.sample()`` must return an object with a ``peer_id`` in
    ``range(n_nodes)``-compatible space; self-loops and duplicate edges
    collapse (as they would in a real link table).
    """
    if links_per_node < 1:
        raise ValueError("need at least one link per node")
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n_nodes))
    for u in range(n_nodes):
        made = 0
        attempts = 0
        while made < links_per_node and attempts < 20 * links_per_node:
            attempts += 1
            v = sampler.sample().peer_id
            if v != u and not g.has_edge(u, v):
                g.add_edge(u, v)
                made += 1
    return g


@dataclass(frozen=True)
class RobustnessPoint:
    """Connectivity after deleting a fraction of nodes."""

    deleted_fraction: float
    survivors: int
    largest_component_fraction: float  # of survivors


def deletion_robustness(
    graph: nx.Graph,
    fractions: list[float],
    targeted: bool = True,
    rng: random.Random | None = None,
) -> list[RobustnessPoint]:
    """Largest-component share after deleting each fraction of nodes.

    ``targeted=True`` models the adversary: delete highest-degree nodes
    first.  ``targeted=False`` deletes uniformly at random.  The input
    graph is never mutated.
    """
    import networkx as nx

    rng = rng if rng is not None else random.Random()
    order = sorted(graph.nodes, key=lambda u: graph.degree(u), reverse=True)
    if not targeted:
        rng.shuffle(order)
    n = graph.number_of_nodes()
    points = []
    for fraction in fractions:
        if not 0.0 <= fraction < 1.0:
            raise ValueError("deletion fractions must be in [0, 1)")
        kill = order[: int(fraction * n)]
        surviving = graph.copy()
        surviving.remove_nodes_from(kill)
        survivors = surviving.number_of_nodes()
        if survivors == 0:
            largest = 0.0
        else:
            components = nx.connected_components(surviving)
            largest = max((len(c) for c in components), default=0) / survivors
        points.append(
            RobustnessPoint(
                deleted_fraction=fraction,
                survivors=survivors,
                largest_component_fraction=largest,
            )
        )
    return points
