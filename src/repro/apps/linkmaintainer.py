"""Maintaining random links through churn (motivation 3, completed).

The paper argues a uniform sampler "allows for simple creation *and
maintenance* of random links".  :class:`RandomLinkMaintainer` is that
maintenance loop over a live Chord network: every node keeps ``r``
links to uniformly sampled peers; each repair pass drops links to
departed peers and tops back up with fresh uniform samples, so the
overlay stays a random graph -- and hence robust -- no matter how the
membership churns.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..core.adaptive import AdaptiveSampler

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["RandomLinkMaintainer"]


class RandomLinkMaintainer:
    """Keeps ``links_per_node`` uniform random links per live Chord node."""

    def __init__(self, network, links_per_node: int = 4, rng: random.Random | None = None):
        if links_per_node < 1:
            raise ValueError("need at least one link per node")
        self._network = network
        self._r = links_per_node
        self._rng = rng if rng is not None else random.Random()
        self._links: dict[int, set[int]] = {}
        self._sampler = AdaptiveSampler(
            network.dht(), rng=self._rng, refresh_every=64
        )

    @property
    def sampler(self) -> AdaptiveSampler:
        """The adaptive uniform sampler feeding the link tables."""
        return self._sampler

    @property
    def links(self) -> dict[int, set[int]]:
        """Current link table: node id -> its sampled neighbour ids."""
        return {node: set(targets) for node, targets in self._links.items()}

    def _draw_link(self, owner: int) -> int | None:
        """One uniform link target distinct from ``owner`` (a few tries)."""
        for _ in range(16):
            candidate = self._sampler.sample().peer_id
            if candidate != owner and candidate not in self._links.get(owner, ()):
                return candidate
        return None

    def repair(self) -> dict[str, int]:
        """One maintenance pass; returns what changed.

        Drops links whose endpoint departed, adds tables for new nodes,
        and tops every table back up to ``links_per_node`` with fresh
        uniform samples.
        """
        alive = set(self._network.nodes)
        dropped = 0
        added = 0
        # Forget departed owners, prune dead targets.
        for owner in list(self._links):
            if owner not in alive:
                del self._links[owner]
                continue
            dead = self._links[owner] - alive
            dropped += len(dead)
            self._links[owner] -= dead
        # Top up every live node.
        for owner in alive:
            table = self._links.setdefault(owner, set())
            while len(table) < self._r:
                candidate = self._draw_link(owner)
                if candidate is None:
                    break
                table.add(candidate)
                added += 1
        return {"dropped": dropped, "added": added}

    def graph(self) -> nx.Graph:
        """The maintained overlay (undirected, live nodes only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._network.nodes)
        for owner, targets in self._links.items():
            for target in targets:
                if owner in g and target in g:
                    g.add_edge(owner, target)
        return g

    def is_fully_provisioned(self) -> bool:
        """Whether every live node currently holds ``links_per_node`` links."""
        alive = set(self._network.nodes)
        return all(
            len(self._links.get(node, ())) >= self._r for node in alive
        )
