"""Semi-structured / unstructured overlays -- the paper's second open problem.

Section 4 asks: "Many peer-to-peer networks like Gnutella have much less
structure than a DHT.  Are there efficient algorithms to choose random
peers in semi-structured peer-to-peer networks?"

Without the ring structure there is no ``h``/``next`` to exploit, so the
state of the art remains random walks -- whose quality depends on the
topology's spectral gap.  This module generates the overlay families a
Gnutella-like network plausibly forms (random regular, supernode/star-
heavy power-law, and narrow ring-like graphs) so benchmark E14 can show
how walk-sampling quality varies across them while the DHT algorithm's
guarantee is topology-independent.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["make_overlay", "OVERLAY_KINDS"]

OVERLAY_KINDS = ("random-regular", "power-law", "ring-lattice")


def make_overlay(kind: str, n: int, rng: random.Random) -> nx.Graph:
    """An unstructured overlay of ``n`` peers of the requested family.

    - ``random-regular``: 6-regular random graph -- the expander-like
      best case for walks;
    - ``power-law``: Barabasi-Albert preferential attachment -- the
      supernode-heavy topology measurement studies report for Gnutella;
    - ``ring-lattice``: a Watts-Strogatz ring with few shortcuts -- the
      slow-mixing worst case.

    All families are returned connected and without isolated nodes.
    """
    if kind not in OVERLAY_KINDS:
        raise ValueError(f"kind must be one of {OVERLAY_KINDS}, got {kind!r}")
    if n < 10:
        raise ValueError("need at least 10 peers for a meaningful overlay")
    import networkx as nx

    seed = rng.randrange(2**31)
    if kind == "random-regular":
        graph = nx.random_regular_graph(6, n if n % 2 == 0 else n + 1, seed=seed)
        if n % 2 == 1:  # random_regular_graph needs even n*d; trim one node
            victim = max(graph.nodes)
            neighbors = list(graph.neighbors(victim))
            graph.remove_node(victim)
            # Reconnect any neighbour left isolated.
            for u in neighbors:
                if graph.degree(u) == 0:
                    graph.add_edge(u, (u + 1) % n)
    elif kind == "power-law":
        graph = nx.barabasi_albert_graph(n, 3, seed=seed)
    else:  # ring-lattice
        graph = nx.watts_strogatz_graph(n, 4, 0.05, seed=seed)
    if not nx.is_connected(graph):
        components = [sorted(c) for c in nx.connected_components(graph)]
        for a, b in zip(components, components[1:]):
            graph.add_edge(a[0], b[0])
    return graph
