"""Shared vantage-peer discipline for live-overlay DHT adapters.

Every message-level substrate adapter issues its lookups *from
somewhere*: a vantage ("entry") peer that stands in for the local node
of the paper's algorithms.  On a dynamic overlay that peer can die, and
the adapter must fail over without leaking substrate-specific errors --
the same rule whether the overlay underneath is a Chord ring or a
Kademlia table, because the rule only needs the oracle membership view.

:class:`EntryVantageMixin` centralizes it.  A host calls
:meth:`~EntryVantageMixin._adopt` with its network, which exposes ``m``,
``len``, ``nodes`` (the live-node mapping) and ``sorted_ids()`` (the
epoch-memoized clockwise oracle view).  Failover re-roots at the
clockwise-nearest survivor, which spreads re-rooted adapters around the
ring instead of piling them onto one global node.
"""

from __future__ import annotations

import bisect

from .api import PeerRef
from .idspace import id_to_point

__all__ = ["EntryVantageMixin"]


class EntryVantageMixin:
    """Entry-peer bookkeeping shared by the live substrate adapters."""

    def _adopt(self, network, entry_id: int | None) -> None:
        """Root the adapter on ``network`` at live ``entry_id``, by default
        the lowest live id (:meth:`_lowest_id`)."""
        if len(network) == 0:
            raise ValueError("cannot adapt an empty network")
        self._network = network
        if entry_id is None:
            entry_id = self._lowest_id()
        if entry_id not in network.nodes:
            raise KeyError(f"entry node {entry_id} is not alive")
        self._entry_id = entry_id

    def _lowest_id(self) -> int:
        return min(self._network.nodes)

    def _ref(self, node_id: int) -> PeerRef:
        return PeerRef(peer_id=node_id, point=id_to_point(node_id, self._network.m))

    @property
    def entry_id(self) -> int:
        """The node id the adapter currently issues lookups from."""
        return self._entry_id

    @property
    def entry_is_alive(self) -> bool:
        """Whether the current vantage peer is still in the overlay."""
        return self._entry_id in self._network.nodes

    def refresh_entry(self, entry_id: int | None = None) -> int:
        """Re-root the adapter at a live vantage peer and return its id.

        With ``entry_id=None`` the clockwise-nearest live node to the
        old vantage is adopted -- the same failover rule
        :meth:`_vantage_id` applies lazily -- so callers can proactively
        shed a stale entry (e.g. a serving shard re-admitting itself
        after churn).
        """
        if entry_id is not None:
            if entry_id not in self._network.nodes:
                raise KeyError(f"entry node {entry_id} is not alive")
            self._entry_id = entry_id
        else:
            self._entry_id = self._nearest_alive(self._entry_id)
        return self._entry_id

    def _nearest_alive(self, node_id: int) -> int:
        """The first live id clockwise of ``node_id`` (wrapping, oracle)."""
        ids = self._network.sorted_ids()
        if not ids:
            # A permanent condition, not a transient routing failure:
            # per the dht.api contract this must NOT be retryable.
            raise ValueError("no live peers: the network is empty")
        i = bisect.bisect_left(ids, node_id)
        return ids[i % len(ids)]

    def _vantage_id(self) -> int:
        """The live vantage id, failing over if the peer departed.

        Re-roots at the clockwise-nearest survivor, which spreads
        re-rooted adapters around the ring instead of piling them onto
        one global node.
        """
        if self._entry_id not in self._network.nodes:
            self._entry_id = self._nearest_alive(self._entry_id)
        return self._entry_id
