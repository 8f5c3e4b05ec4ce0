"""The Kademlia overlay: membership, bootstrap, bucket refresh, and the
DHT adapter that exposes the paper's ``h``/``next`` interface with real
message-level cost accounting.

:class:`KademliaNetwork` mirrors :class:`~repro.dht.chord.network.ChordNetwork`
shape-for-shape -- ``build``/``join_node``/``crash_node``/``leave_node``,
epoch-keyed oracle views, periodic maintenance on the simulator clock --
so the churn process, the scenario runner and the serving layer drive
either substrate unchanged.  The protocol mapping differs where the
substrates genuinely differ:

===================  ==========================  ===========================
concept              Chord                       Kademlia
===================  ==========================  ===========================
routing state        fingers + successor list    k-buckets (LRU, uptime-bias)
lookup               iterative ring halving      alpha-parallel XOR descent
stabilization        stabilize/notify/fix        self + random bucket refresh
graceful leave       splice out via neighbours   none: leaving *is* crashing
``h`` resolution     native ``find_successor``   aligned-block certification
``next`` cost        one successor RPC, O(1)     a full lookup, O(log n)
===================  ==========================  ===========================

The last two rows are the substrate-independence finding this backend
exists to measure: King & Saia's primitives are *cheap* on a
successor-structured overlay and genuinely cost more on an XOR-
structured one (``bench backends`` quantifies the gap).
"""

from __future__ import annotations

import bisect
import heapq
import random
from array import array
from collections import Counter

from ...faults.retry import LOOKUP_RETRY, RetryPolicy
from ...sim.async_net import AsyncRpcTransport
from ...sim.kernel import Simulator
from ...sim.network import LatencyModel, RpcTimeout, RpcTransport
from ..api import CostMeter, PeerRef
from ..idspace import draw_distinct_ids
from ..vantage import EntryVantageMixin
from .idspace import bucket_index, bucket_range, id_to_point, point_to_target_id
from .node import KademliaLookupError_, KademliaNode

__all__ = ["KademliaNetwork", "KademliaDHT"]

#: Protocol-faithful identifier width (Kademlia's SHA-1 space).  Sims
#: routinely pass something smaller: routing behaviour only depends on
#: ids being distinct, while table wiring and probe bounds scale with m.
DEFAULT_BITS = 160


class KademliaNetwork:
    """A simulated Kademlia overlay plus the machinery to keep it fresh.

    Nodes live in an :class:`~repro.sim.network.RpcTransport`; a
    :class:`~repro.sim.kernel.Simulator` (optional) drives periodic
    bucket refresh for churn experiments, or callers invoke
    :meth:`refresh_round` directly for lock-step experiments.
    """

    def __init__(
        self,
        m: int = DEFAULT_BITS,
        k: int = 20,
        alpha: int = 3,
        rng: random.Random | None = None,
        latency: LatencyModel | None = None,
        loss_rate: float = 0.0,
        sim: Simulator | None = None,
        loss_rng: random.Random | None = None,
        async_transport: bool = False,
    ):
        if m < 3:
            raise ValueError("identifier space needs at least 3 bits")
        self.m = m
        self.k = k
        self.alpha = alpha
        self.rng = rng if rng is not None else random.Random()
        self.sim = sim if sim is not None else Simulator()
        if async_transport:
            # The message-level transport: requests/replies as scheduled
            # events on this network's simulator (see repro.sim.async_net).
            self.transport: RpcTransport = AsyncRpcTransport(
                self.sim,
                latency=latency,
                rng=self.rng,
                loss_rate=loss_rate,
                loss_rng=loss_rng,
            )
        else:
            self.transport = RpcTransport(
                latency=latency, rng=self.rng, loss_rate=loss_rate, loss_rng=loss_rng
            )
        self.nodes: dict[int, KademliaNode] = {}
        #: Monotone counter bumped by every membership or maintenance
        #: event; epoch-keyed oracle caches (:meth:`sorted_ids`,
        #: :meth:`points_array`) rebuild lazily when it moves, exactly
        #: like the Chord network's cache discipline.
        self.churn_epoch = 0
        self._sorted_cache: list[int] | None = None
        self._sorted_epoch = -1
        self._points_cache: array | None = None
        self._points_epoch = -1

    # -- bootstrap ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        n: int,
        m: int = DEFAULT_BITS,
        k: int = 20,
        alpha: int = 3,
        rng: random.Random | None = None,
        perfect: bool = True,
        **kwargs,
    ) -> "KademliaNetwork":
        """Create an overlay of ``n`` nodes with distinct random ids.

        ``perfect=True`` fills every k-bucket from the oracle membership
        (the fixed point a fully-refreshed network converges to), so
        experiments start from correct routing state.  ``perfect=False``
        bootstraps by sequential joins with a refresh round between
        them, exercising the join/refresh protocol itself.
        """
        net = cls(m=m, k=k, alpha=alpha, rng=rng, **kwargs)
        if n < 1:
            raise ValueError("need at least one node")
        ids = draw_distinct_ids(net.rng, net.m, n, net.nodes)
        if perfect:
            for node_id in ids:
                net._register(node_id)
            net.wire_perfectly()
        else:
            net._register(ids[0])
            for node_id in ids[1:]:
                net.join_node(node_id)
                net.refresh_round()
        return net

    def _register(self, node_id: int) -> KademliaNode:
        node = KademliaNode(node_id, self.m, self.transport, self.k, self.alpha)
        self.nodes[node_id] = node
        self.transport.register(node_id, node)
        return node

    def bump_epoch(self) -> None:
        """Invalidate epoch-keyed caches after a state mutation."""
        self.churn_epoch += 1

    def wire_perfectly(self) -> None:
        """Set every routing table to the fully-refreshed fixed point.

        For each node and each bucket, the bucket's aligned id block is
        sliced out of the global sorted membership; blocks holding more
        than ``k`` ids contribute ``k`` rank-evenly-spaced members --
        deterministic, and spreading the finger-like coverage a healthy
        refresh regime produces.  Oracle wiring, free of messages.
        """
        ids = sorted(self.nodes)
        for node_id, node in self.nodes.items():
            for i in range(self.m):
                base, end = bucket_range(node_id, i)
                lo = bisect.bisect_left(ids, base)
                hi = bisect.bisect_left(ids, end)
                count = hi - lo
                if count == 0:
                    members: list[int] = []
                elif count <= self.k:
                    members = ids[lo:hi]
                else:
                    members = [
                        ids[lo + (j * count) // self.k] for j in range(self.k)
                    ]
                node.load_bucket(i, members)
        self.bump_epoch()

    # -- membership ----------------------------------------------------------

    def join_node(self, node_id: int | None = None) -> KademliaNode:
        """Add one node via the real bootstrap protocol (entry + self-lookup)."""
        if node_id is None:
            node_id = draw_distinct_ids(self.rng, self.m, 1, self.nodes)[0]
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already in the overlay")
        entry = self._random_alive_id(excluding=node_id)
        node = self._register(node_id)
        if entry is not None:
            node.join(entry)
        self.bump_epoch()
        return node

    def crash_node(self, node_id: int) -> None:
        """Fail-stop: the node vanishes without telling anyone."""
        self._remove(node_id)

    def leave_node(self, node_id: int) -> None:
        """Departure.  Kademlia has no splice-out protocol: a leave is
        observationally a crash, and the overlay relies on LRU eviction
        and refresh to forget the departed -- one of the liveness-model
        differences the cross-backend tests pin down."""
        self._remove(node_id)

    def _remove(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise KeyError(f"no node {node_id}")
        del self.nodes[node_id]
        self.transport.deregister(node_id)
        self.bump_epoch()

    def _random_alive_id(self, excluding: int | None = None) -> int | None:
        pool = [i for i in self.nodes if i != excluding]
        if not pool:
            return None
        return self.rng.choice(pool)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- maintenance -----------------------------------------------------------

    def refresh_round(self) -> None:
        """One lock-step maintenance round over all nodes (random order).

        Kademlia's stabilization analogue: each node repairs its own
        neighbourhood, probes one random far target and liveness-checks
        one stale contact (see :meth:`KademliaNode.refresh`).  All
        traffic runs through the transport and is charged.
        """
        order = list(self.nodes)
        self.rng.shuffle(order)
        for node_id in order:
            node = self.nodes.get(node_id)
            if node is None:  # removed mid-round
                continue
            node.refresh(self.rng)
        self.bump_epoch()

    def purge_dead_contacts(self) -> int:
        """Drop every dead contact from every routing table (uncharged).

        The Kademlia arm of mass-failure recovery: Chord heals by
        successor-list failover plus ring merging, while Kademlia's
        tables only forget the dead lazily, one timeout at a time.
        This oracle-assisted anti-entropy pass (see
        :meth:`KademliaNode.purge_dead`) models the obituary dissemination
        a production deployment gets from gossip, compressing the long
        eviction tail so refresh rounds can rebuild coverage from live
        contacts.  Returns the total number of entries dropped.
        """
        alive = frozenset(self.nodes)
        dropped = 0
        for node in self.nodes.values():
            dropped += node.purge_dead(alive)
        self.bump_epoch()
        return dropped

    def rebootstrap(self) -> None:
        """Every node re-runs the join protocol through a random entry.

        The partition-healing arm: an outage long enough for both sides
        to evict each other's contacts leaves two overlays that share an
        id space but no table entries, and :meth:`refresh_round` can
        only rediscover peers through existing contacts -- a fully split
        table never re-links.  Deployed networks close this gap with
        well-known bootstrap peers that nodes re-contact once
        connectivity returns; we model that here.  Entry selection is
        the only oracle step (the bootstrap set spans the partition, as
        in :meth:`join_node`); everything else is the real protocol and
        every message is charged.  Two passes, as in the paper's join:
        first every node re-learns an entry and looks itself up
        (announcing itself along the path), then every node refreshes
        each bucket range (:meth:`KademliaNode.refresh_all_buckets`) --
        the second pass re-seeds tree branches that emptied wholesale
        during the outage, which neighbourhood self-lookups alone can
        never reach.  The sweep's lookups run ``thorough`` (full
        top-``k`` termination frontier): the only surviving route into a
        dark branch is often a mid-distance contact the steady-state
        alpha frontier would skip right over.
        """
        order = list(self.nodes)
        self.rng.shuffle(order)
        for node_id in order:
            node = self.nodes.get(node_id)
            if node is None:
                continue
            entry = self._random_alive_id(excluding=node_id)
            if entry is not None:
                node.join(entry)
        for node_id in order:
            node = self.nodes.get(node_id)
            if node is None:
                continue
            node.refresh_all_buckets(self.rng)
        self.bump_epoch()

    # Chord-compatible names, so the scenario runner and churn tooling
    # drive either backend through one vocabulary.
    stabilize_round = refresh_round

    def run_stabilization(self, rounds: int, **_ignored) -> None:
        """Run several lock-step refresh rounds back to back."""
        for _ in range(rounds):
            self.refresh_round()

    def start_periodic_maintenance(self, interval: float = 8.0):
        """Schedule bucket refresh on the simulator clock (churn runs)."""
        return self.sim.every(interval, self.refresh_round)

    # -- oracles for tests and analysis ----------------------------------------

    def sorted_ids(self) -> list[int]:
        """Alive identifiers in clockwise ring order (oracle view)."""
        if (
            self._sorted_cache is None
            or self._sorted_epoch != self.churn_epoch
            or len(self._sorted_cache) != len(self.nodes)
        ):
            self._sorted_cache = sorted(self.nodes)
            self._sorted_epoch = self.churn_epoch
        return self._sorted_cache

    def points_array(self) -> array:
        """Alive peer points, sorted, as a flat float array (oracle view).

        Note the wrap: id 0 maps to point 1.0, so when node 0 is alive
        its point sorts *last* while its id sorts first; the array is
        built in point order to keep index arithmetic consistent with
        :meth:`KademliaDHT.successor_of_index`.
        """
        if self._points_cache is None or self._points_epoch != self.churn_epoch:
            pts = sorted(id_to_point(i, self.m) for i in self.nodes)
            self._points_cache = array("d", pts)
            self._points_epoch = self.churn_epoch
        return self._points_cache

    def routing_is_correct(self) -> bool:
        """Every node's working neighbourhood is converged and live.

        The convergence invariant refresh must restore once churn stops
        -- the analogue of Chord's successor-ring correctness, stated at
        the strength Kademlia actually guarantees: for each node,

        - its ``min(k, n-1)`` XOR-closest *table* contacts are all
          alive (the entries lookups and walks answer from), and
        - every member of its true ``min(k, n-1)``-closest live set
          whose distance class fits in a bucket (at most ``k`` live
          members) is present in the table.  Classes with more than
          ``k`` members are bucket-capacity ties: the table holds
          *some* ``k`` of them, and which ``k`` is uptime policy, not
          correctness.

        An O(n^2) oracle check, meant for scenario-sized overlays.
        """
        ids = self.sorted_ids()
        n = len(ids)
        want = min(self.k, n - 1)
        if want <= 0:
            return True
        alive = set(ids)
        for node_id, node in self.nodes.items():
            table = set(node.contacts())
            top = heapq.nsmallest(want, table, key=lambda i: node_id ^ i)
            if not all(c in alive for c in top):
                return False
            expected = sorted(
                (i for i in ids if i != node_id), key=lambda i: node_id ^ i
            )[:want]
            class_counts = Counter(
                bucket_index(node_id, i) for i in ids if i != node_id
            )
            for neighbor in expected:
                if class_counts[bucket_index(node_id, neighbor)] > self.k:
                    continue  # bucket-capacity tie class
                if neighbor not in table:
                    return False
        return True

    # The scenario runner's recovery verdict hook; for Kademlia "the
    # ring" is the XOR neighbourhood structure.
    ring_is_correct = routing_is_correct

    def dht(
        self,
        entry_id: int | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_rng: random.Random | None = None,
    ) -> "KademliaDHT":
        """An ``h``/``next`` adapter rooted at ``entry_id`` (default: any)."""
        return KademliaDHT(
            self, entry_id=entry_id, retry_policy=retry_policy, retry_rng=retry_rng
        )

    @classmethod
    def build_dht(
        cls,
        n: int,
        m: int = 32,
        k: int = 20,
        alpha: int = 3,
        rng: random.Random | None = None,
        **kwargs,
    ) -> "KademliaDHT":
        """Build a perfectly-wired overlay and return its DHT adapter.

        The shared constructor for workloads, the serving layer and the
        CLI, mirroring ``ChordNetwork.build_dht``.  Note the *practical*
        default of ``m=32`` here (the raw network class defaults to the
        protocol-faithful 160): adapter semantics are identical for any
        ``m`` with ``2**m >= n``, while table wiring and successor-probe
        bounds scale with ``m``.
        """
        if n > (1 << m):
            raise ValueError(f"identifier space 2^{m} too small for n={n}")
        return cls.build(n, m=m, k=k, alpha=alpha, rng=rng, **kwargs).dht()


class KademliaDHT(EntryVantageMixin):
    """The paper's DHT interface over a live :class:`KademliaNetwork`.

    ``h(x)`` runs the aligned-block successor resolution from the entry
    node -- one iterative XOR lookup in the common case -- charging the
    *measured* message count and latency.  ``next(p)`` asks ``p`` for
    its clockwise neighbourhood in one RPC (ring-parity O(1) on
    converged tables; see :meth:`next`), falling back to a full
    successor resolution when ``p`` is dead or cannot answer -- so
    Theorem 7's cost premises are *measured* against XOR routing rather
    than assumed, which is what the backend comparison bench
    quantifies.

    Like :class:`~repro.dht.chord.ChordDHT`, this adapter deliberately
    does **not** satisfy :class:`~repro.dht.api.BulkDHT`: a live overlay
    has no unit-priced operations, so ``bulk_op_costs`` is omitted and
    batch samplers keep metering real per-lookup charges through the
    per-call fallback (``h_many``/``resolve_many`` below are
    charge-identical batched conveniences, not a flat-array fast path).
    ``points_array``/``successor_of_index`` are provided as *oracle*
    views for tests and analysis tooling, free of cost, mirroring the
    other substrates.
    """

    def __init__(
        self,
        network: KademliaNetwork,
        entry_id: int | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_rng: random.Random | None = None,
    ):
        self._adopt(network, entry_id)
        #: Retry discipline (default: three back-to-back attempts; see
        #: the matching contract on ChordDHT).
        self._retry_policy = retry_policy if retry_policy is not None else LOOKUP_RETRY
        self._retry_rng = retry_rng
        self.cost = CostMeter()
        #: Successor probes beyond the first lookup (boundary hops of the
        #: aligned-block search) -- observability for benches and tests.
        self.extra_probes = 0
        #: ``next`` hops served by one neighbour query vs full successor
        #: resolutions -- observability for the backend bench.
        self.neighbor_hops = 0
        self.resolved_hops = 0

    @property
    def transport(self):
        """The underlying transport (tracer installation, introspection)."""
        return self._network.transport

    # entry_id / entry_is_alive / refresh_entry / _vantage_id come from
    # EntryVantageMixin -- the failover discipline shared with ChordDHT.

    # -- the paper's primitives -------------------------------------------

    def _resolve(self, target: int) -> int:
        """Successor of ``target`` with the adapter's retry discipline.

        A failed probe already evicted the dead contacts it met, and a
        stale-head sweep of the entry's buckets between attempts clears
        more of the casualties a crash burst left behind -- targeted,
        entry-local repair, the Kademlia analogue of the Chord adapter
        forcing a stabilization round between lookup retries (and far
        cheaper than one: periodic refresh owns systemic repair).
        """
        transport = self._network.transport
        failure = 0
        spent = 0.0  # failed attempts' charges and waits, not the sweeps
        while True:
            entry = self._network.nodes[self._vantage_id()]
            if failure:
                entry.probe_stale()
            started = transport.elapsed
            try:
                result = entry.find_successor(target)
            except KademliaLookupError_ as exc:
                failure += 1
                spent += transport.elapsed - started
                wait = self._retry_policy.backoff(failure, spent, self._retry_rng)
                if wait is None:
                    raise KademliaLookupError_(
                        f"successor of {target} failed after {failure} attempts: {exc}"
                    ) from exc
                # Charge the backoff wait before the stale sweep so the
                # retry sees post-wait table state; the failed attempt's
                # messages stay on the meter regardless.
                transport.metrics.counter("rpc.retries").increment()
                transport.charge_delay(wait)
                spent += wait
                continue
            self.extra_probes += result.probes - 1
            return result.node_id

    def h(self, x: float) -> PeerRef:
        """``h(x)`` via XOR successor resolution (cost: measured)."""
        target = point_to_target_id(x, self._network.m)
        transport = self._network.transport
        tracing = transport.tracer.active
        before_msgs = transport.messages_sent
        before_time = transport.elapsed
        before_calls = (
            transport.metrics.counter("rpc.calls").value if tracing else 0
        )
        owner = None
        try:
            owner = self._resolve(target)
        finally:
            msgs = transport.messages_sent - before_msgs
            latency = transport.elapsed - before_time
            self.cost.charge_h(msgs, latency)
            if tracing:
                transport.tracer.on_lookup(
                    "kademlia",
                    transport.metrics.counter("rpc.calls").value - before_calls,
                    msgs,
                    latency,
                    owner is not None,
                )
        return self._ref(owner)

    def next(self, peer: PeerRef) -> PeerRef:
        """``next(p)`` via one ``find_clockwise`` RPC to ``p`` (cost: O(1)).

        ``p`` answers from its own routing table; on converged tables
        the first clockwise-at-or-after entry for target ``p + 1`` is
        exactly ``p``'s successor (see
        :meth:`~repro.dht.kademlia.node.KademliaNode.find_clockwise`
        for the block-minimum argument), restoring ring-parity ``next``
        cost on an overlay with no successor pointers.  A dead ``p`` --
        it crashed under us mid-walk -- falls back to a full successor
        resolution of its point, mirroring the Chord adapter's
        timeout-to-``h`` failover; the same full resolution backstops
        the (dynamics-only) case of a reply with no usable candidate.
        """
        size = 1 << self._network.m
        target = (peer.peer_id + 1) % size
        transport = self._network.transport
        before_msgs = transport.messages_sent
        before_time = transport.elapsed
        try:
            reply = transport.rpc(
                peer.peer_id, "find_clockwise", target, self._entry_id
            )
        except RpcTimeout:
            reply = None
        if reply:
            self.neighbor_hops += 1
            self.cost.charge_next(
                transport.messages_sent - before_msgs,
                transport.elapsed - before_time,
            )
            return self._ref(reply[0])
        try:
            self.resolved_hops += 1
            owner = self._resolve(target)
        finally:
            self.cost.charge_next(
                transport.messages_sent - before_msgs,
                transport.elapsed - before_time,
            )
        return self._ref(owner)

    def any_peer(self) -> PeerRef:
        return self._ref(self._vantage_id())

    # -- batched conveniences (charge-identical to per-call loops) ---------

    def h_many(self, xs) -> list[PeerRef]:
        """``h`` over a vector of points, charge-identical to a scalar loop."""
        return [self.h(x) for x in xs]

    def resolve_many(self, xs) -> list[PeerRef | None]:
        """Failure-tolerant :meth:`h_many`: per-point ``None`` on failure.

        Mirrors a loop of ``h`` calls with the substrate's retryable
        liveness error caught per point, which is what the batch
        engine's fallback path expects from live overlays.
        """
        out: list[PeerRef | None] = []
        for x in xs:
            try:
                out.append(self.h(x))
            except KademliaLookupError_:
                out.append(None)
        return out

    # -- oracle views (uncharged, mirroring the other substrates) ----------

    def points_array(self):
        """Sorted live peer points (oracle view, free of cost)."""
        return self._network.points_array()

    def successor_of_index(self, i: int) -> PeerRef:
        """The live peer at clockwise ring position ``i % n`` (uncharged).

        Index order follows the *point* circle (id 0 owns point 1.0 and
        therefore sorts last), consistent with :meth:`points_array`.
        """
        ids = self._network.sorted_ids()
        n = len(ids)
        if ids and ids[0] == 0:
            # id 0 lives at point 1.0: rotate it to the end of the
            # point-ordered view.
            return self._ref(ids[(i % n + 1) % n])
        return self._ref(ids[i % n])
