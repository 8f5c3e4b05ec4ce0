"""Struct-of-arrays Kademlia substrate: implicit k-buckets over flat arrays.

:class:`~repro.dht.kademlia.network.KademliaNetwork` materializes a
routing table per node -- m buckets of up to k contacts each, plus LRU
bookkeeping -- which is exactly the memory that stops the benches short
of a million nodes.  This module stores **no routing tables at all**:
the entire substrate is two sorted id arrays,

- ``basis`` -- the membership as of the last refresh round: the ids
  every (implicit) routing table was converged against, dead entries
  included.  This is the array the *tables are a function of*.
- ``live`` -- the current true membership.

A converged Kademlia table is fully determined by the membership it was
built from: bucket ``i`` of node ``v`` is the aligned sibling block
``bucket_range(v, i)``, holding all block members when there are at
most ``k`` and ``k`` rank-evenly-spaced ones otherwise (the same
selection :meth:`KademliaNetwork.wire_perfectly` makes).  So instead of
storing tables, a lookup *recomputes* the one bucket it needs per hop
from two binary searches of ``basis`` -- O(log n) work per hop, ~16
bytes per node total, and the stale-knowledge semantics of real
Kademlia fall out naturally: a crash only leaves ``basis``, and thus
every implicit table, at the next refresh round, exactly like bucket
eviction discovering dead contacts.

Lookups are XOR-descent followed by successor certification, mirroring
the live substrate's two phases: greedily hop to the bucket member
closest to the target (each hop provably lands inside the target's
aligned block, so progress is strict and bounded by ``m``), then walk
``basis`` clockwise from the target pinging candidates until the first
live one answers -- which is precisely the oracle owner ``first live id
>= target`` (wrapping), because ``basis`` is always a superset of
``live``.  Dead probes charge the timeout; live probes charge one RPC
round trip (the live transport's default constants); budget and retry
discipline mirror the live adapter (``lookup_budget(m, k)``, refresh
between attempts).

This substrate has no transport -- the conformance suite marks it
``transported=False``.
"""

from __future__ import annotations

import random

import numpy as _np

from ..api import CostMeter, PeerRef
from ..idspace import draw_distinct_ids, draw_sorted_ids
from ..vantage import EntryVantageMixin
from .idspace import bucket_index, bucket_range, point_to_target_id
from .node import KademliaLookupError_, lookup_budget

__all__ = ["SoAKademliaNetwork", "SoAKademliaDHT"]

#: Deterministic charge constants, the live transport's defaults:
#: one-way 1.0, round trip 2.0, dead 8.0.
ONE_WAY_LATENCY = 1.0
RPC_LATENCY = 2.0 * ONE_WAY_LATENCY
TIMEOUT = 8.0


class _SortedIds:
    """A sorted id set as one flat numpy array."""

    __slots__ = ("_ids",)

    def __init__(self, ids):
        self._ids = _np.ascontiguousarray(ids, dtype=_np.int64)

    def __len__(self):
        return len(self._ids)

    def __contains__(self, node_id: int) -> bool:
        i = self._find(node_id)
        return i >= 0

    def _find(self, node_id: int) -> int:
        ids = self._ids
        i = int(_np.searchsorted(ids, node_id))
        if i < len(ids) and int(ids[i]) == node_id:
            return i
        return -1

    def insort(self, node_id: int) -> None:
        if node_id in self:
            return
        i = int(_np.searchsorted(self._ids, node_id))
        self._ids = _np.insert(self._ids, i, node_id)

    def discard(self, node_id: int) -> None:
        i = self._find(node_id)
        if i < 0:
            return
        self._ids = _np.delete(self._ids, i)

    def at(self, i: int) -> int:
        return int(self._ids[i])

    def bisect_left(self, value: int) -> int:
        return int(_np.searchsorted(self._ids, value))

    def slice_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Index bounds of ids in ``[lo, hi)``."""
        return (
            int(_np.searchsorted(self._ids, lo)),
            int(_np.searchsorted(self._ids, hi)),
        )

    def to_list(self) -> list[int]:
        return [int(v) for v in self._ids]

    def copy(self) -> "_SortedIds":
        fresh = _SortedIds.__new__(_SortedIds)
        fresh._ids = self._ids.copy()
        return fresh

    def nbytes(self) -> int:
        return int(self._ids.nbytes)


class _MembersView:
    """Mapping-shaped view over the live array (ids stand in for nodes)."""

    __slots__ = ("_net",)

    def __init__(self, net):
        self._net = net

    def __iter__(self):
        return iter(self._net.live.to_list())

    def __len__(self):
        return len(self._net.live)

    def __contains__(self, node_id):
        return node_id in self._net.live

    def get(self, node_id, default=None):
        return node_id if node_id in self._net.live else default

    def __getitem__(self, node_id):
        if node_id not in self._net.live:
            raise KeyError(node_id)
        return node_id


class SoAKademliaNetwork:
    """A Kademlia overlay reduced to two sorted id arrays."""

    def __init__(
        self,
        m: int = 32,
        k: int = 20,
        rng: random.Random | None = None,
    ):
        if m < 3:
            raise ValueError("identifier space needs at least 3 bits")
        if k < 1:
            raise ValueError("bucket size k must be >= 1")
        self.m = m
        self.k = k
        self.rng = rng if rng is not None else random.Random()
        self.churn_epoch = 0
        self.snapshot_builds = 0
        self.snapshot_patches = 0
        self.live = _SortedIds([])
        self.basis = _SortedIds([])
        self.nodes = _MembersView(self)
        self._sorted_cache: list[int] | None = None
        self._sorted_epoch = -1

    @classmethod
    def build(
        cls,
        n: int,
        m: int = 32,
        k: int = 20,
        rng: random.Random | None = None,
        **_ignored,
    ) -> "SoAKademliaNetwork":
        if n < 1:
            raise ValueError("need at least one node")
        if n > (1 << m):
            raise ValueError(f"cannot place {n} nodes in a 2^{m} id space")
        net = cls(m=m, k=k, rng=rng)
        ids = draw_sorted_ids(net.rng, m, n)
        net.live = _SortedIds(ids)
        net.basis = net.live.copy()
        net.snapshot_builds = 1
        return net

    # -- membership --------------------------------------------------------

    def join_node(self, node_id: int | None = None) -> int:
        """A join announces itself: it enters both membership and basis."""
        if node_id is None:
            node_id = draw_distinct_ids(self.rng, self.m, 1, self.live)[0]
        if node_id in self.live:
            raise ValueError(f"node {node_id} already in the overlay")
        self.live.insort(node_id)
        self.basis.insort(node_id)
        self.churn_epoch += 1
        self.snapshot_patches += 1
        self._sorted_cache = None
        return node_id

    def crash_node(self, node_id: int) -> None:
        """Fail-stop: leaves ``basis`` -- and thus every implicit routing
        table -- stale until the next refresh round, like unevicted dead
        contacts on the live substrate."""
        if node_id not in self.live:
            raise KeyError(f"no node {node_id}")
        self.live.discard(node_id)
        self.churn_epoch += 1
        self.snapshot_patches += 1
        self._sorted_cache = None

    def leave_node(self, node_id: int) -> None:
        """Graceful departure: announced, so the basis drops it too."""
        if node_id not in self.live:
            raise KeyError(f"no node {node_id}")
        self.live.discard(node_id)
        self.basis.discard(node_id)
        self.churn_epoch += 1
        self.snapshot_patches += 1
        self._sorted_cache = None

    def refresh_round(self) -> None:
        """Re-converge all (implicit) tables on the true membership."""
        self.basis = self.live.copy()
        self.churn_epoch += 1
        self.snapshot_patches += 1

    def stabilize_round(self, fingers_per_round: int = 1) -> None:
        """The ring-protocol spelling of :meth:`refresh_round`."""
        self.refresh_round()

    def run_stabilization(self, rounds: int, **_kw) -> None:
        for _ in range(rounds):
            self.refresh_round()

    # -- oracle views ------------------------------------------------------

    def sorted_ids(self) -> list[int]:
        if (
            self._sorted_cache is None
            or self._sorted_epoch != self.churn_epoch
            or len(self._sorted_cache) != len(self.live)
        ):
            self._sorted_cache = self.live.to_list()
            self._sorted_epoch = self.churn_epoch
        return self._sorted_cache

    def routing_is_correct(self) -> bool:
        """Whether every implicit table reflects the true membership."""
        a, b = self.basis._ids, self.live._ids
        return len(a) == len(b) and bool((a == b).all())

    def array_bytes(self) -> int:
        return self.live.nbytes() + self.basis.nbytes()

    def __len__(self) -> int:
        return len(self.live)

    # -- adapter -----------------------------------------------------------

    def dht(self, entry_id: int | None = None) -> "SoAKademliaDHT":
        return SoAKademliaDHT(self, entry_id=entry_id)

    @classmethod
    def build_dht(
        cls,
        n: int,
        m: int = 32,
        k: int = 20,
        rng: random.Random | None = None,
        **kwargs,
    ) -> "SoAKademliaDHT":
        return cls.build(n, m=m, k=k, rng=rng, **kwargs).dht()


class SoAKademliaDHT(EntryVantageMixin):
    """The ``h``/``next`` adapter over :class:`SoAKademliaNetwork`.

    ``h`` runs XOR descent + successor certification against the basis
    array with deterministic per-probe charges; ``h_many`` is a plain
    scalar loop (matching the live Kademlia adapter, which has no
    lockstep engine), so bulk-vs-scalar equivalence is structural.
    """

    def __init__(
        self,
        network: SoAKademliaNetwork,
        entry_id: int | None = None,
        retries: int = 3,
    ):
        self._adopt(network, entry_id)
        self._retries = max(1, retries)
        self.cost = CostMeter()

    # -- implicit routing --------------------------------------------------

    def _bucket_members(self, node_id: int, i: int) -> list[int]:
        """Bucket ``i`` of ``node_id``'s implicit converged table.

        All basis ids in the aligned sibling block when there are at
        most ``k``, else ``k`` rank-evenly-spaced ones -- the identical
        selection ``KademliaNetwork.wire_perfectly`` stores, so the
        implicit table equals the materialized one entry for entry.
        """
        basis = self._network.basis
        lo_v, hi_v = bucket_range(node_id, i)
        lo, hi = basis.slice_range(lo_v, hi_v)
        count = hi - lo
        if count <= 0:
            return []
        k = self._network.k
        if count <= k:
            return [basis.at(j) for j in range(lo, hi)]
        return [basis.at(lo + (j * count) // k) for j in range(k)]

    def _lookup(self, target: int, entry: int) -> tuple[int | None, int, float, int]:
        """One lookup attempt: ``(owner | None, messages, latency, probes)``.

        Phase 1 (descent): hop to the bucket member XOR-closest to the
        target.  Every member of the bucket containing the target lies
        inside the target's aligned block, so each live hop strictly
        shrinks the shared-prefix distance -- at most ``m`` live hops.
        Phase 2 (certification): walk the basis clockwise from the
        target, pinging until the first live candidate -- the oracle
        owner, since the basis is a superset of the membership.
        """
        net = self._network
        live = net.live
        budget = lookup_budget(net.m, net.k)
        msgs = 0
        latency = 0.0
        probes = 0
        cur = entry
        while cur != target:
            i = bucket_index(cur, target)
            members = self._bucket_members(cur, i)
            members.sort(key=lambda c: c ^ target)
            nxt = None
            for candidate in members:
                if probes >= budget:
                    return None, msgs, latency, probes
                if candidate in live:
                    probes += 1
                    msgs += 2
                    latency += RPC_LATENCY
                    nxt = candidate
                    break
                # Stale basis entry: the FIND_NODE call times out.
                probes += 1
                msgs += 1
                latency += TIMEOUT
            if nxt is None:
                break  # empty/dead bucket: certification takes over
            cur = nxt
        # Certification walk: first live basis id clockwise of target.
        basis = net.basis
        n_basis = len(basis)
        j = basis.bisect_left(target)
        for step in range(n_basis):
            candidate = basis.at((j + step) % n_basis)
            if candidate in live:
                if candidate != entry:
                    # liveness-confirming ping, like Chord's owner check
                    probes += 1
                    msgs += 2
                    latency += RPC_LATENCY
                return candidate, msgs, latency, probes
            if probes >= budget:
                return None, msgs, latency, probes
            probes += 1
            msgs += 1
            latency += TIMEOUT
        return None, msgs, latency, probes

    # -- the DHT contract --------------------------------------------------

    def h(self, x: float) -> PeerRef:
        target = point_to_target_id(x, self._network.m)
        msgs = 0
        latency = 0.0
        owner: int | None = None
        for attempt in range(self._retries):
            entry = self._vantage_id()
            found, m_msgs, m_lat, _ = self._lookup(target, entry)
            msgs += m_msgs
            latency += m_lat
            if found is not None:
                owner = found
                break
            if attempt + 1 < self._retries:
                self._network.refresh_round()
        self.cost.charge_h(msgs, latency)
        if owner is None:
            raise KademliaLookupError_(
                f"h({x!r}) failed after {self._retries} attempts"
            )
        return self._ref(owner)

    def h_many(self, xs) -> list[PeerRef]:
        return [self.h(x) for x in xs]

    def resolve_many(self, xs) -> list[PeerRef | None]:
        out: list[PeerRef | None] = []
        for x in xs:
            try:
                out.append(self.h(x))
            except KademliaLookupError_:
                out.append(None)
        return out

    def successor_of_index(self, i: int) -> PeerRef:
        ids = self._network.sorted_ids()
        return self._ref(ids[i % len(ids)])

    def next(self, peer: PeerRef) -> PeerRef:
        """``next(p)``: one clockwise-successor query of ``p``."""
        live = self._network.live
        if peer.peer_id in live:
            j = live.bisect_left(peer.peer_id + 1)
            self.cost.charge_next(2, RPC_LATENCY)
            return self._ref(live.at(j % len(live)))
        self.cost.charge_next(1, TIMEOUT)
        return self.h(peer.point)

    def any_peer(self) -> PeerRef:
        return self._ref(self._vantage_id())
