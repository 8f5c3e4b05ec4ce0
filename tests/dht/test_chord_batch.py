"""The lockstep batch lookup engine: exact equivalence with scalar lookups.

The engine's contract (see :mod:`repro.dht.chord.batch`) is *replay*,
not approximation: ``h_many`` must return the identical peers, charge
the identical meter/transport amounts, and take the identical hop
counts as a loop of scalar ``h`` calls under the same seeds -- on
healthy rings, with crashed nodes still referenced by finger tables and
successor lists, and in both lookup modes.  These tests pin that
contract, plus the one ring store it routes on.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adversary.state import AdversaryState
from repro.core.engine import BatchSampler, _Block
from repro.core.sampler import RandomPeerSampler
from repro.dht.api import BulkDHT
from repro.dht.chord import ChordNetwork
from repro.dht.chord import batch as batch_mod
from repro.dht.chord.batch import (
    Lookups,
    _sim_iterative,
    _sim_recursive,
    build_route_table,
    lockstep_resolve,
)
from repro.dht.chord.idspace import id_to_point, point_to_target_id
from repro.dht.chord.node import LookupError_, hop_budget
from repro.faults.plan import Partition
from repro.faults.state import FaultState
from repro.sim.network import UniformLatency


def build_twins(seed, n=64, m=16, crashes=0, mode="iterative", copies=2, **kwargs):
    """Identical rings (same seed): batched path vs scalar reference.

    ``copies=3`` adds a second batched twin that is never warmed: the
    lanes a warmed twin's route table must reproduce.
    """
    nets = [
        ChordNetwork.build(n, m=m, rng=random.Random(seed), **kwargs)
        for _ in range(copies)
    ]
    if crashes:
        rng = random.Random(seed + 99)
        ids = list(nets[0].sorted_ids())
        victims = rng.sample([i for i in ids if i != min(ids)], crashes)
        for victim in victims:
            for net in nets:
                net.crash_node(victim)
    return tuple(net.dht(lookup_mode=mode) for net in nets)


def points(k, seed):
    rng = random.Random(seed)
    return [1.0 - rng.random() for _ in range(k)]


def scalar_loop(dht, xs, tolerant=False):
    out = []
    for x in xs:
        if not tolerant:
            out.append(dht.h(x))
            continue
        try:
            out.append(dht.h(x))
        except LookupError_:
            out.append(None)
    return out


def assert_charges_equal(dht_a, dht_b):
    assert dht_a.cost.snapshot() == dht_b.cost.snapshot()
    ta, tb = dht_a._network.transport, dht_b._network.transport
    assert ta.messages_sent == tb.messages_sent
    assert ta.elapsed == tb.elapsed
    assert (
        ta.metrics.counter("rpc.calls").value
        == tb.metrics.counter("rpc.calls").value
    )
    assert (
        ta.metrics.counter("rpc.timeouts").value
        == tb.metrics.counter("rpc.timeouts").value
    )


def assert_lanes_equal(dht, lanes):
    """``dht`` against an unwarmed batched twin that served the same calls."""
    ta, tb = dht._network.transport, lanes._network.transport
    assert ta.messages_by_method() == tb.messages_by_method()
    assert dht.batch_stats.as_dict() == lanes.batch_stats.as_dict()


def warm_first(dht, warm):
    """Build the batched twin's route table before it serves, if ``warm``."""
    if warm:
        assert dht.warm_lockstep()
    return dht


@pytest.fixture
def table_reads(monkeypatch):
    """The size of every batch answered from a route table in the test."""
    reads = []
    read = batch_mod._table_resolve

    def counted(snapshot, table, entry_id, targets, *args):
        reads.append(len(targets))
        return read(snapshot, table, entry_id, targets, *args)

    monkeypatch.setattr(batch_mod, "_table_resolve", counted)
    return reads


def without_walk_view(dht):
    """Force the per-call ``next`` walk: the reference the replay must equal."""
    dht.walk_view = lambda: None
    return dht


def count_next(dht):
    """Record every per-call ``next`` this adapter instance serves."""
    calls = []
    live_next = dht.next

    def counted(peer):
        calls.append(peer)
        return live_next(peer)

    dht.next = counted
    return calls


def assert_walk_charges_equal(dht_a, dht_b):
    assert_charges_equal(dht_a, dht_b)
    ta, tb = dht_a._network.transport, dht_b._network.transport
    assert ta.messages_by_method() == tb.messages_by_method()


class _RecordingSink:
    """A trace sink that is always recording and keeps every event."""

    active = True

    def __init__(self):
        self.events = []

    def on_rpc(self, *args):
        self.events.append(("rpc",) + args)

    def on_lookup(self, *args):
        self.events.append(("lookup",) + args)


def _install_faults(net):
    faults = net.transport.install_faults(FaultState())
    faults.set_grey(net.sorted_ids()[3], latency_factor=3.0)


def _install_adversary(net):
    adv = AdversaryState(m=net.m)
    adv.mark(net.sorted_ids()[5], "lookup")
    net.transport.install_adversary(adv)


#: Configurations whose walks must not be replayed, as
#: ``(build_twins kwargs, per-network installer)``.
REFUSALS = {
    "loss": ({"loss_rate": 0.05}, None),
    "uniform-latency": ({"latency": UniformLatency(0.5, 1.5)}, None),
    "faults": ({}, _install_faults),
    "adversary": ({}, _install_adversary),
    "async": ({"async_transport": True}, None),
}


class TestStaticEquivalence:
    #: Whether the batched twin is warmed first, so that a route table
    #: answers wherever one is built (the ``...Warm`` subclass).
    warm = False

    # both kernels: python simulation (small) and the numpy vector lane
    @pytest.mark.parametrize("batch", [8, 200])
    @pytest.mark.parametrize("mode", ["iterative", "recursive"])
    def test_peers_and_charges_match_scalar_loop(self, batch, mode, table_reads):
        dht_a, dht_b, lanes = build_twins(11, mode=mode, copies=3)
        warm_first(dht_a, self.warm)
        xs = points(batch, 5)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs) == lanes.h_many(xs)
        assert_charges_equal(dht_a, dht_b)
        assert_lanes_equal(dht_a, lanes)
        assert dht_a.cost.h_calls == batch
        assert dht_a.batch_stats.lockstep == batch
        assert table_reads == ([batch] if self.warm else [])

    @pytest.mark.parametrize("batch", [8, 200])
    def test_hop_counts_match_scalar_lookups(self, batch, table_reads):
        dht_a, dht_b = build_twins(12)
        warm_first(dht_a, self.warm)
        net_b = dht_b._network
        entry = net_b.nodes[dht_b.entry_id]
        targets = [point_to_target_id(x, net_b.m) for x in points(batch, 6)]
        scalar = [entry.lookup(t) for t in targets]
        transport = dht_a._network.transport
        traces = lockstep_resolve(
            dht_a._network.snapshot(),
            dht_a.entry_id,
            targets,
            mode="iterative",
            rpc_latency=2.0,
            oneway_latency=1.0,
            timeout=transport.timeout,
        )
        assert [t.owner for t in traces] == [r.node_id for r in scalar]
        assert [t.hops for t in traces] == [r.hops for r in scalar]
        assert all(t.ok for t in traces)
        assert bool(table_reads) == self.warm

    def test_imperfect_ring_from_sequential_joins(self, table_reads):
        # A ring built by the real join protocol has imperfect tables;
        # the replay must follow them, not an oracle route.
        dht_a, dht_b, lanes = build_twins(13, n=24, perfect=False, copies=3)
        warm_first(dht_a, self.warm)
        xs = points(150, 7)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs) == lanes.h_many(xs)
        assert_charges_equal(dht_a, dht_b)
        assert_lanes_equal(dht_a, lanes)
        assert bool(table_reads) == self.warm

    def test_mid_batch_domain_error_matches_scalar_sequence(self):
        dht_a, dht_b = build_twins(14)
        warm_first(dht_a, self.warm)
        xs = [0.5, 0.25, 1.5, 0.75]
        with pytest.raises(ValueError):
            dht_a.h_many(xs)
        with pytest.raises(ValueError):
            scalar_loop(dht_b, xs)
        # the valid prefix was served and charged before the raise
        assert dht_a.cost.h_calls == 2
        assert_charges_equal(dht_a, dht_b)

    def test_empty_and_single_point_batches(self):
        dht_a, dht_b = build_twins(15)
        warm_first(dht_a, self.warm)
        assert dht_a.h_many([]) == []
        assert dht_a.h_many([0.5]) == [dht_b.h(0.5)]
        assert_charges_equal(dht_a, dht_b)

    def test_single_node_ring(self, table_reads):
        net = ChordNetwork.build(1, m=8, rng=random.Random(3))
        dht = warm_first(net.dht(), self.warm)
        xs = points(80, 8)
        refs = dht.h_many(xs)
        assert all(r.peer_id == dht.entry_id for r in refs)
        assert dht.cost.messages == 0  # the entry owns everything locally
        assert bool(table_reads) == self.warm


class TestStaticEquivalenceWarm(TestStaticEquivalence):
    """The same equivalences with the batched twin warmed first."""

    warm = True


class TestCrashedReferences:
    """Dead fingers/successors: the exact-fallback lanes of the engine.

    A warmed twin must refuse to build a route table here (a dead id
    can split an arc between routes), so every batch runs the lanes.
    """

    warm = False

    @pytest.mark.parametrize("batch", [8, 200])
    @pytest.mark.parametrize("crashes", [1, 10])
    def test_iterative_routes_around_crashes_identically(self, batch, crashes):
        dht_a, dht_b, lanes = build_twins(21, n=80, crashes=crashes, copies=3)
        warm_first(dht_a, self.warm)
        assert dht_a._network.snapshot().route is None
        xs = points(batch, 9)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs) == lanes.h_many(xs)
        assert_charges_equal(dht_a, dht_b)
        assert_lanes_equal(dht_a, lanes)
        # crashes leave timeouts behind -- proves the dead-hop lane ran
        assert dht_a._network.transport.metrics.counter("rpc.timeouts").value > 0

    @pytest.mark.parametrize("batch", [8, 200])
    def test_recursive_failures_are_replayed_identically(self, batch):
        # Recursive lookups cannot reroute: some fail, h retries and
        # stabilizes, and the batch must replay that exact sequence.
        dht_a, dht_b, lanes = build_twins(22, n=80, crashes=10, mode="recursive", copies=3)
        warm_first(dht_a, self.warm)
        assert dht_a._network.snapshot().route is None
        xs = points(batch, 10)
        expected = scalar_loop(dht_b, xs, tolerant=True)
        assert dht_a.resolve_many(xs) == expected == lanes.resolve_many(xs)
        assert_charges_equal(dht_a, dht_b)
        assert_lanes_equal(dht_a, lanes)

    def test_strict_h_many_raises_like_the_scalar_loop(self):
        dht_a, dht_b = build_twins(23, n=80, crashes=10, mode="recursive")
        warm_first(dht_a, self.warm)
        assert dht_a._network.snapshot().route is None
        xs = points(200, 10)
        err_a = err_b = None
        try:
            dht_a.h_many(xs)
        except LookupError_ as exc:
            err_a = str(exc)
        try:
            scalar_loop(dht_b, xs)
        except LookupError_ as exc:
            err_b = str(exc)
        assert err_a == err_b  # either both clean or the same failure
        assert_charges_equal(dht_a, dht_b)

    def test_hop_counts_with_crashed_fingers(self):
        dht_a, dht_b = build_twins(24, n=80, crashes=8)
        warm_first(dht_a, self.warm)
        assert dht_a._network.snapshot().route is None
        net_b = dht_b._network
        entry = net_b.nodes[dht_b.entry_id]
        targets = [point_to_target_id(x, net_b.m) for x in points(150, 11)]
        transport = dht_a._network.transport
        traces = lockstep_resolve(
            dht_a._network.snapshot(),
            dht_a.entry_id,
            targets,
            mode="iterative",
            rpc_latency=2.0,
            oneway_latency=1.0,
            timeout=transport.timeout,
        )
        for trace, target in zip(traces, targets):
            result = entry.lookup(target)
            assert (trace.owner, trace.hops) == (result.node_id, result.hops)


class TestCrashedReferencesWarm(TestCrashedReferences):
    """The same equivalences with the batched twin warmed first."""

    warm = True


def successor_only(net):
    """Strip every finger and all but the first successor (a direct write).

    Lookups then walk the ring one successor at a time, so on a ring
    longer than the hop budget some of them exhaust it with every
    reference live.
    """
    for node in net.nodes.values():
        node.fingers = [None] * net.m
        node.successors = node.successors[:1]


def wired(kind, n, m, seed):
    """A ring of ``n`` live nodes whose rows name only live ids.

    ``perfect`` is the oracle wiring; ``joined`` the sequential joins of
    a non-perfect build, unstabilized between them; ``partial`` a
    perfect half joined by the rest, then zero to two stabilization
    rounds (by ``seed``); ``successor-only`` a perfect ring stripped to
    its first successors.  Joined rows are not in clockwise order.
    """
    rng = random.Random(seed)
    if kind == "partial":
        net = ChordNetwork.build(max(1, n // 2), m=m, rng=rng)
        for _ in range(n - len(net)):
            net.join_node()
        for _ in range(seed % 3):
            net.stabilize_round()
        return net
    net = ChordNetwork.build(n, m=m, rng=rng, perfect=kind != "joined")
    if kind == "successor-only":
        successor_only(net)
    return net


WIRINGS = ("perfect", "joined", "partial", "successor-only")


def unset_a_finger(net):
    """Clear one node's top finger through its setter (a direct row write)."""
    node = net.nodes[net.sorted_ids()[4]]
    assert node.fingers[-1] is not None
    node.fingers = [*node.fingers[:-1], None]


#: Ring and vantage changes applied to both twins after the batched twin
#: is warmed; each must stop its route table from being read.
STALE = {
    "join": lambda dht: dht._network.join_node(),
    "crash": lambda dht: dht._network.crash_node(dht._network.sorted_ids()[7]),
    "leave": lambda dht: dht._network.leave_node(dht._network.sorted_ids()[9]),
    "stabilize": lambda dht: dht._network.stabilize_round(),
    "row-write": lambda dht: unset_a_finger(dht._network),
    "entry-failover": lambda dht: dht._network.crash_node(dht.entry_id),
    "entry-moved": lambda dht: dht.refresh_entry(dht._network.sorted_ids()[5]),
}


class TestRouteTable:
    """One lookup per owner arc, read while the ring stays as warmed.

    A twin that is never warmed runs every batch through the lanes, and
    the table's answers must equal theirs.
    """

    def test_every_target_matches_the_python_replay(self, table_reads):
        # Every identifier of small spaces, so every target of every arc;
        # at 24 and 32 bits (no id -> slot table at 32) each arc's first
        # and last id.  From an entry that is not the lowest id (once
        # n > 1).
        for m, n, wiring, mode in itertools.product(
            (6, 8, 10, 24, 32),
            (1, 2, 3, 24, 60),
            WIRINGS,
            ("iterative", "recursive"),
        ):
            net = wired(wiring, n, m, 100 * m + n)
            snap = net.snapshot()
            ids = net.sorted_ids()
            entry = ids[len(ids) // 2]
            costs = {"mode": mode, "rpc_latency": 2.0, "oneway_latency": 1.0, "timeout": 8.0}
            assert build_route_table(snap, entry, **costs)
            sim, lat = (_sim_iterative, 2.0) if mode == "iterative" else (_sim_recursive, 1.0)
            if m <= 10:
                targets = list(range(1 << m))
            else:
                targets = ids + [(i + 1) % (1 << m) for i in ids]
            expected = [sim(snap, entry, t, hop_budget(m), lat, 8.0) for t in targets]
            case = (m, n, wiring, mode)
            # The table itself, arc by arc (the read replays failing arcs).
            arcs = [sim(snap, entry, t, hop_budget(m), lat, 8.0) for t in ids]
            assert [
                (ids[o], h) if h >= 0 else None
                for o, h in zip(snap.route.owner.tolist(), snap.route.hops.tolist())
            ] == [(t.owner, t.hops) if t.ok else None for t in arcs], case
            assert lockstep_resolve(snap, entry, targets, **costs) == expected, case
            assert table_reads.pop() == len(targets), case
            # A successor walk longer than the budget fails some arcs.
            failing = not all(t.ok for t in expected)
            assert failing == (wiring == "successor-only" and n - 1 > hop_budget(m)), case

    @settings(max_examples=60, deadline=None)
    @example("successor-only", 40, 6, 0, "iterative")  # routes of 24 hops, the budget
    @example("successor-only", 40, 6, 0, "recursive")
    @given(
        st.sampled_from(WIRINGS),
        st.integers(min_value=1, max_value=120),
        st.sampled_from((4, 6, 12, 22, 23, 32)),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(("iterative", "recursive")),
    )
    def test_table_equals_the_per_target_lane(self, wiring, n, m, seed, mode):
        # The table routes intervals of arcs; the lane that serves target
        # batches routes each arc's end id on its own, as the table did
        # before.  Both encode route_step and must agree on every arc.
        net = wired(wiring, min(n, (1 << m) - 1), m, seed)
        snap = net.snapshot()
        ids = snap.ids_np
        entry = int(ids[seed % len(ids)])
        assert build_route_table(snap, entry, mode, 2.0, 1.0, 8.0)
        state, owner, hops = batch_mod._vector_frontier(
            snap, entry, ids, hop_budget(m), recursive=mode != "iterative"
        )
        ok = state == batch_mod._OK
        assert (ok | (hops >= hop_budget(m))).all()  # fails only by budget
        assert snap.route.owner.tolist() == np.where(ok, ids.searchsorted(owner), 0).tolist()
        assert snap.route.hops.tolist() == np.where(ok, hops, -1).tolist()

    @settings(max_examples=40, deadline=None)
    @example("successor-only", 80, 16, 0, "iterative")  # arcs past the budget, replayed
    @example("successor-only", 80, 16, 1, "recursive")
    @given(
        st.sampled_from(WIRINGS),
        st.integers(min_value=1, max_value=100),
        st.sampled_from((16, 24, 32)),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(("iterative", "recursive")),
    )
    def test_answers_carry_the_owners_positions(self, wiring, n, m, seed, mode):
        # The batch sampler starts each walk at the position a table
        # answer carries instead of searching the walk view for it, so on
        # every row it must be the view's position of the owner, -1
        # exactly where the owner is not live (a replayed, failing arc).
        net = wired(wiring, n, m, seed)
        snap = net.snapshot()
        ids = snap.ids_np
        inputs = (int(ids[seed % len(ids)]), mode, 2.0, 1.0, 8.0)
        assert build_route_table(snap, *inputs)
        # Both ends of every arc, shuffled: the answer is searched in
        # ascending order and scattered back.
        targets = np.concatenate((ids, (ids + 1) % (1 << m)))
        random.Random(seed).shuffle(targets)
        found = batch_mod.resolve_lookups(snap, targets, *inputs)
        assert found.position is not None
        owners = found.owner.tolist()
        assert found.position.tolist() == snap.walk_view().positions(found.owner).tolist()
        assert (found.position < 0).tolist() == [not snap.alive(o) for o in owners]
        sim, lat = (_sim_iterative, 2.0) if mode == "iterative" else (_sim_recursive, 1.0)
        assert owners == [
            sim(snap, inputs[0], t, hop_budget(m), lat, 8.0).owner for t in targets.tolist()
        ]
        failing = wiring == "successor-only" and len(ids) - 1 > hop_budget(m)
        assert (not found.ok.all()) == failing

    @pytest.mark.parametrize("mode", ["iterative", "recursive"])
    def test_budget_exhausting_arcs_delegate_as_the_lanes_do(self, mode, table_reads):
        dht_a, dht_b, lanes = build_twins(86, n=60, m=6, mode=mode, copies=3)
        for dht in (dht_a, dht_b, lanes):
            successor_only(dht._network)
        assert dht_a.warm_lockstep()
        assert (dht_a._network.snapshot().route.hops < 0).any()
        xs = points(80, 34)
        expected = scalar_loop(dht_b, xs, tolerant=True)
        assert dht_a.resolve_many(xs) == expected == lanes.resolve_many(xs)
        assert_charges_equal(dht_a, dht_b)
        assert_lanes_equal(dht_a, lanes)
        assert dht_a.batch_stats.delegated > 0
        assert table_reads

    @pytest.mark.parametrize("change", sorted(STALE))
    def test_ring_changes_stop_table_reads(self, change, table_reads):
        dht_a, dht_b = build_twins(81, n=48, perfect=False)
        assert dht_a.warm_lockstep()
        snap = dht_a._network.snapshot()
        patches = snap.patches
        for dht in (dht_a, dht_b):
            STALE[change](dht)
        if change == "stabilize":
            assert dht_a._network.snapshot().patches > patches  # rows rewritten
        xs = points(100, 30)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs)
        assert_charges_equal(dht_a, dht_b)
        assert not table_reads
        # Warming again (as a recovered serving shard does) rebuilds the
        # table wherever the changed ring still names only live ids; a
        # departed id stays in its neighbours' fingers until repaired.
        assert dht_a.warm_lockstep()
        rebuilt = dht_a._network.snapshot().route is not None
        assert rebuilt == (change not in ("crash", "entry-failover", "leave"))
        xs = points(100, 31)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs)
        assert_charges_equal(dht_a, dht_b)
        assert table_reads == ([100] if rebuilt else [])

    def test_noop_stabilize_round_keeps_the_table(self, table_reads):
        dht_a, dht_b = build_twins(82, n=48)
        assert dht_a.warm_lockstep()
        snap = dht_a._network.snapshot()
        patches, epoch = snap.patches, dht_a._network.churn_epoch
        for dht in (dht_a, dht_b):
            dht._network.stabilize_round()
        assert dht_a._network.churn_epoch > epoch
        assert dht_a._network.snapshot() is snap and snap.patches == patches
        xs = points(100, 32)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs)
        assert_charges_equal(dht_a, dht_b)
        assert table_reads == [100]

    def test_noop_stabilize_round_keeps_the_walk_view_and_block(self):
        # A round that rewrites no row leaves the walk view, and so the
        # engine's classified block, current: the calls between rounds
        # keep committing from one block instead of classifying anew.
        net = ChordNetwork.build(200, m=16, rng=random.Random(84))
        dht = net.dht()
        resolves = []
        resolve = dht.resolve_many

        def counting(xs, *, commit=True):
            if not commit:
                resolves.append(len(xs))
            return resolve(xs, commit=commit)

        dht.resolve_many = counting
        engine = BatchSampler(dht, n_hat=200.0, rng=random.Random(85))
        assert engine.warm()
        engine.sample_many(1)
        view, patches = dht.walk_view(), net.snapshot().patches
        for _ in range(12):
            block = engine._block
            net.stabilize_round()
            assert net.snapshot().patches == patches
            assert dht.walk_view() is view
            assert block is None or engine._is_current(block)
            engine.sample_many(1)
        # Each block was used up on the unchanged ring, so each next one
        # is twice as large.
        assert len(resolves) <= 4
        assert resolves == [resolves[0] << i for i in range(len(resolves))]

    def test_partition_keeps_the_store_and_its_table(self, table_reads):
        # A partition changes reachability, not membership or rows: the
        # store and its route table outlive apply and revert.
        dht_a, dht_b = build_twins(87, n=48)
        for dht in (dht_a, dht_b):
            dht._network.transport.install_faults(FaultState())
        assert dht_a.warm_lockstep()
        snap = dht_a._network.snapshot()
        route, builds = snap.route, dht_a._network.snapshot_builds
        partition = Partition(groups=2)
        for dht in (dht_a, dht_b):
            partition.apply(dht._network, random.Random(3))
            assert not dht.lockstep_eligible()
            partition.revert(dht._network)
        assert dht_a.lockstep_eligible()
        assert dht_a._network.snapshot() is snap
        assert snap.route is route
        assert dht_a._network.snapshot_builds == builds == 1
        xs = points(100, 35)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs)
        assert_charges_equal(dht_a, dht_b)
        assert table_reads == [100]

    def test_traced_batches_read_the_table(self, table_reads):
        dht_a, dht_b = build_twins(83, n=64)
        sinks = [_RecordingSink(), _RecordingSink()]
        for dht, sink in zip((dht_a, dht_b), sinks):
            dht._network.transport.install_tracer(sink)
        assert dht_a.warm_lockstep()
        xs = points(120, 33)
        assert dht_a.h_many(xs) == dht_b.h_many(xs)
        assert table_reads == [120]
        assert sinks[0].events == sinks[1].events
        assert [e[0] for e in sinks[0].events] == ["lookup"] * 120

    @pytest.mark.parametrize("mode", ["iterative", "recursive"])
    @pytest.mark.parametrize("crashes", [0, 2])
    def test_wide_ids_read_the_table(self, crashes, mode, table_reads):
        # bench_scale's width: 32-bit ids are too wide for the store's
        # id -> slot table, so slots are found by binary search.  A
        # crashed id left in live rows keeps the table from being built,
        # and a recursive lookup through it fails.
        dht_a, dht_b, lanes = build_twins(84, n=48, m=32, crashes=crashes, mode=mode, copies=3)
        assert dht_a._network.snapshot().pos_table is None
        assert dht_a.warm_lockstep()
        assert (dht_a._network.snapshot().route is not None) == (not crashes)
        xs = points(60, 35)
        expected = scalar_loop(dht_b, xs, tolerant=True)
        assert dht_a.resolve_many(xs) == expected == lanes.resolve_many(xs)
        assert None not in expected or (crashes and mode == "recursive")
        assert_charges_equal(dht_a, dht_b)
        assert_lanes_equal(dht_a, lanes)
        assert table_reads == ([60] if not crashes else [])


def _entry_failover(dht):
    dht._network.crash_node(dht.entry_id)
    dht.refresh_entry()  # what the next lookup does


#: Changes after which a warmed adapter's replay key must change: a new
#: key object, or None where replay is refused.
KEY_CHANGES = {
    "stabilize-writes-a-row": lambda dht: dht._network.stabilize_round(),
    "join": STALE["join"],
    "crash": STALE["crash"],
    "entry-failover": _entry_failover,
    "entry-moved": STALE["entry-moved"],
    "active-fault": lambda dht: _install_faults(dht._network),
    "liar": lambda dht: _install_adversary(dht._network),
}


class TestReplayKey:
    """``replay_key()`` recomputes the key on every call and hands back
    the previous key object while nothing it names has changed."""

    def test_a_warmed_ring_keeps_one_key_object(self):
        net = ChordNetwork.build(64, m=16, rng=random.Random(91))
        dht = net.dht()
        engine = BatchSampler(dht, n_hat=64.0, rng=random.Random(92))
        assert engine.warm()
        key = dht.replay_key()
        assert key is not None and key[0] is dht.walk_view()
        for _ in range(40):
            engine.sample_many_attributed(1)
            assert dht.replay_key() is key
        assert engine._block.key is key

    @pytest.mark.parametrize("change", sorted(KEY_CHANGES))
    def test_every_change_it_names_gives_a_new_key(self, change):
        # Built unstabilized, so a maintenance round writes rows.
        net = ChordNetwork.build(48, m=16, rng=random.Random(93), perfect=False)
        dht = net.dht()
        assert dht.warm_lockstep()
        key = dht.replay_key()
        assert key is not None and dht.replay_key() is key
        patches = net.snapshot().patches
        KEY_CHANGES[change](dht)
        if change == "stabilize-writes-a-row":
            assert net.snapshot().patches > patches
        after = dht.replay_key()
        assert after is not key
        if after is None:
            assert change in ("active-fault", "liar")
        else:
            assert after != key
            assert dht.replay_key() is after
            if change == "entry-moved":
                assert after[0] is key[0]  # the same view: only the entry moved

    @pytest.mark.parametrize(
        "transport",
        [{"loss_rate": 0.05}, {"latency": UniformLatency(0.5, 1.5)}],
        ids=["lossy", "stochastic-latency"],
    )
    def test_refused_transports_have_no_key(self, transport):
        net = ChordNetwork.build(32, m=16, rng=random.Random(94), **transport)
        dht = net.dht()
        assert dht.replay_key() is None
        assert not dht.warm_lockstep()
        assert dht.replay_key() is None

    def test_without_walk_view_forces_per_call_walks(self):
        dht_a, dht_b = build_twins(95, n=48)
        for dht in (dht_a, dht_b):
            assert dht.warm_lockstep()
        assert dht_b.replay_key() is not None
        without_walk_view(dht_b)
        assert dht_b.replay_key() is None
        calls_a, calls_b = count_next(dht_a), count_next(dht_b)
        engine_a = BatchSampler(dht_a, n_hat=48.0, rng=random.Random(96))
        engine_b = BatchSampler(dht_b, params=engine_a.params, rng=random.Random(96))
        drawn_a = [p for _ in range(30) for p in engine_a.sample_many(1)]
        drawn_b = [p for _ in range(30) for p in engine_b.sample_many(1)]
        assert drawn_a == drawn_b
        assert_walk_charges_equal(dht_a, dht_b)
        assert not calls_a and calls_b


class TestEligibility:
    def test_lossy_transport_disables_lockstep(self):
        net = ChordNetwork.build(16, m=16, rng=random.Random(31), loss_rate=0.2)
        dht = net.dht()
        assert not dht.lockstep_eligible()
        assert not dht.warm_lockstep()
        xs = points(8, 12)
        dht.h_many(xs)
        assert dht.batch_stats.lockstep == 0
        assert dht.batch_stats.percall == len(xs)

    def test_stochastic_latency_disables_lockstep(self):
        net = ChordNetwork.build(
            16, m=16, rng=random.Random(32), latency=UniformLatency(0.5, 1.5)
        )
        assert not net.dht().lockstep_eligible()

    def test_active_faults_disable_lockstep(self):
        # A snapshot replay cannot see partitioned edges or grey charge
        # inflation; eligibility must track the fault surface live.
        from repro.faults.state import FaultState

        net = ChordNetwork.build(16, m=16, rng=random.Random(35))
        faults = net.transport.install_faults(FaultState())
        dht = net.dht()
        assert dht.lockstep_eligible()
        faults.set_burst_loss(0.2)
        assert not dht.lockstep_eligible()
        faults.clear()
        assert dht.lockstep_eligible()

    def test_default_transport_is_eligible(self):
        net = ChordNetwork.build(16, m=16, rng=random.Random(33))
        dht = net.dht()
        assert dht.lockstep_eligible()
        assert dht.warm_lockstep()

    def test_chord_is_still_not_bulk(self):
        # BulkDHT would route trial classification through a flat point
        # array with synthetic unit costs -- wrong for a live overlay.
        net = ChordNetwork.build(8, m=16, rng=random.Random(34))
        assert not isinstance(net.dht(), BulkDHT)


class TestEpochCaching:
    def test_sorted_ids_memoized_per_epoch(self):
        net = ChordNetwork.build(16, m=16, rng=random.Random(41))
        first = net.sorted_ids()
        assert net.sorted_ids() is first  # cached within the epoch
        net.join_node()
        second = net.sorted_ids()
        assert second is not first
        assert len(second) == 17

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda net: net.join_node(),
            lambda net: net.crash_node(max(net.nodes)),
            lambda net: net.leave_node(max(net.nodes)),
            lambda net: net.stabilize_round(),
            lambda net: net.rewire_perfectly(),
        ],
        ids=["join", "crash", "leave", "stabilize", "rewire"],
    )
    def test_every_mutator_bumps_the_epoch(self, mutate):
        # ... and writes the one ring store: the same object from the
        # build on, holding exactly the rows every node reports.
        net = ChordNetwork.build(16, m=16, rng=random.Random(42))
        snap = net.snapshot()
        before = net.churn_epoch
        mutate(net)
        assert net.churn_epoch > before
        assert net.snapshot() is snap
        assert net.snapshot_builds == 1
        assert snap.canonical_state() == tuple(
            (i, tuple(net.nodes[i].successors), tuple(net.nodes[i].fingers))
            for i in sorted(net.nodes)
        )

    def test_setters_write_through_to_the_store(self):
        net = ChordNetwork.build(16, m=16, rng=random.Random(47))
        snap = net.snapshot()
        ids = net.sorted_ids()
        node = net.nodes[ids[0]]
        patches = snap.patches
        node.successors = [ids[2], ids[3]]
        fingers = list(node.fingers)
        fingers[5] = None
        node.fingers = fingers
        fingers[6] = None  # the node keeps a copy of what it was given
        assert snap.patches == patches + 2
        row = {i: (s, f) for i, s, f in snap.canonical_state()}[ids[0]]
        assert row == ((ids[2], ids[3]), tuple(node.fingers))
        assert node.fingers[6] is not None
        # Writing what is already there writes nothing.
        node.successors = [ids[2], ids[3]]
        node.fingers = list(node.fingers)
        assert snap.patches == patches + 2

    def test_stale_snapshot_never_routes_after_churn(self):
        dht_a, dht_b = build_twins(45, n=48)
        xs = points(60, 13)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs)
        # crash a batch of nodes on both rings, no stabilization
        ids = [i for i in dht_a._network.sorted_ids() if i != dht_a.entry_id]
        for victim in random.Random(46).sample(ids, 6):
            dht_a._network.crash_node(victim)
            dht_b._network.crash_node(victim)
        xs = points(60, 14)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs)
        assert_charges_equal(dht_a, dht_b)


class TestSuccessorOfIndex:
    def test_wraps_and_matches_ring_order(self):
        net = ChordNetwork.build(12, m=16, rng=random.Random(51))
        dht = net.dht()
        ids = net.sorted_ids()
        assert dht.successor_of_index(0).peer_id == ids[0]
        assert dht.successor_of_index(len(ids)).peer_id == ids[0]
        assert dht.successor_of_index(len(ids) + 3).peer_id == ids[3]
        before = dht.cost.snapshot()
        dht.successor_of_index(5)
        assert dht.cost.snapshot() == before  # uncharged oracle access


class TestSummedLookups:
    @pytest.mark.parametrize("delay", [2.0, 0.3])
    def test_slice_totals_equal_the_summed_rows(self, delay):
        # A classified block answers a slice's charges from two reads
        # per column of its running totals, with the totals the slice's
        # own rows sum to: latency from the running total only while it
        # is exact (whole-number latencies), from the rows otherwise.
        rng = random.Random(7)
        rows = [
            (
                rng.randrange(99), rng.randrange(9), rng.randrange(40),
                delay * rng.randrange(40), rng.randrange(20), rng.randrange(3),
                rng.random() < 0.9,
            )
            for _ in range(300)
        ]
        columns = [np.array(c, dtype=d) for c, d in zip(zip(*rows), Lookups._DTYPES)]
        hops = np.array([rng.randrange(30) for _ in rows], dtype=np.int64)
        found = Lookups(*columns)
        codes = np.full(len(rows), 2, dtype=np.int8)  # all exhausted: no peer to materialize
        block = _Block(None, None, [0.5] * len(rows), codes, codes, hops, None, found=found)
        assert (block.cum_lookups[3] is None) == (delay != int(delay))
        for lo, hi in [(0, 300), (0, 1), (17, 18), (40, 123), (299, 300), (5, 5)]:
            assert block.lookup_totals(lo, hi) == found[lo:hi].totals()
            assert block.cum_hops[hi] - block.cum_hops[lo] == sum(hops[lo:hi])


class TestSamplerIntegration:
    def test_trial_many_matches_scalar_trials_on_chord(self):
        dht_a, dht_b = build_twins(61, n=64)
        scalar = RandomPeerSampler(dht_b, n_hat=64.0)
        engine = BatchSampler(dht_a, params=scalar.params)
        xs = points(120, 15)
        batched = engine.trial_many(xs)
        reference = [scalar.trial(x) for x in xs]
        assert batched == reference
        assert_charges_equal(dht_a, dht_b)

    def test_sample_many_uses_lockstep_and_stays_uniform(self):
        net = ChordNetwork.build(48, m=16, rng=random.Random(62))
        dht = net.dht()
        engine = BatchSampler(dht, n_hat=48.0, rng=random.Random(63))
        peers = engine.sample_many(300)
        assert len(peers) == 300
        assert dht.batch_stats.lockstep > 0  # rounds went through h_many
        assert {p.peer_id for p in peers} <= set(net.nodes)

    def test_engine_warm_builds_the_snapshot(self):
        net = ChordNetwork.build(24, m=16, rng=random.Random(64))
        dht = net.dht()
        engine = BatchSampler(dht, n_hat=24.0)
        assert engine.warm() is True
        assert net.snapshot_builds == 1

    @pytest.mark.parametrize(
        "case",
        [
            {"n": 64},
            {"n": 40, "perfect": False},
            {"n": 64, "crashes": 3},
            {"n": 64, "crashes": 14, "mode": "recursive"},
            {"n": 64, "mode": "recursive"},
            {"n": 1},
            {"n": 2},
            {"n": 64, "m": 32},
            {"n": 64, "crashes": 3, "m": 32},
        ],
        ids=[
            "perfect",
            "imperfect",
            "crashed",
            "crashed-recursive",
            "recursive",
            "n1",
            "n2",
            "perfect-m32",
            "crashed-m32",
        ],
    )
    def test_walk_replay_matches_per_call_walk(self, case):
        # The batch resolves every h before any walk, so the reference is
        # the same batch with the walk view disabled, not a scalar loop.
        dht_a, dht_b = build_twins(66, **case)
        without_walk_view(dht_b)
        calls_a, calls_b = count_next(dht_a), count_next(dht_b)
        engine_a = BatchSampler(dht_a, n_hat=float(case["n"]))
        engine_b = BatchSampler(dht_b, params=engine_a.params)
        for seed in (17, 18):  # a second round reuses (or re-reads) the view
            xs = points(150, seed)
            assert engine_a.trial_many(xs) == engine_b.trial_many(xs)
            assert_walk_charges_equal(dht_a, dht_b)
        assert engine_a.stale_trials == engine_b.stale_trials
        assert len(calls_a) < len(calls_b)
        if case.get("crashes", 0) <= 3 and "mode" not in case:
            assert len(calls_a) < len(calls_b) / 2
        if "crashes" not in case:
            assert not calls_a

    def test_mid_round_stabilization_rereads_the_view(self):
        # A walk that meets the crashed node re-resolves through h, whose
        # recursive lookup fails and stabilizes the ring mid-round; the
        # trials after it must see the stabilized ring.  Walks stop after
        # a few hops, so the first point lies two lam counterclockwise of
        # the crashed node's predecessor (the one live position whose
        # successor pointer disagrees with the ring): its walk's second
        # hop asks the crashed node.
        dht_a, dht_b = build_twins(61, n=64, crashes=1, mode="recursive")
        view = dht_a.walk_view()
        pred = int((view.run == 0).nonzero()[0][0])
        without_walk_view(dht_b)
        calls_a, calls_b = count_next(dht_a), count_next(dht_b)
        net = dht_a._network
        resolved_at = []
        resolve = dht_a.resolve_many

        def recording(xs, **kwargs):
            out = resolve(xs, **kwargs)
            resolved_at.append(net.churn_epoch)
            return out

        dht_a.resolve_many = recording
        engine_a = BatchSampler(dht_a, n_hat=64.0)
        engine_b = BatchSampler(dht_b, params=engine_a.params)
        xs = [float(view.points[pred]) - 2 * engine_a.params.lam] + points(40, 62)
        assert engine_a.trial_many(xs) == engine_b.trial_many(xs)
        assert_walk_charges_equal(dht_a, dht_b)
        assert net.churn_epoch > resolved_at[0]  # stabilized during the walks
        assert calls_a and len(calls_a) <= len(calls_b)
        assert len(calls_a) < len(calls_b) / 10

    def test_static_ring_serves_without_next(self):
        net = ChordNetwork.build(48, m=16, rng=random.Random(71))
        dht = net.dht()
        calls = count_next(dht)
        engine = BatchSampler(dht, n_hat=48.0, rng=random.Random(72))
        assert len(engine.sample_many(200)) == 200
        assert not calls
        assert dht.cost.next_calls > 0  # replayed hops are charged as next calls
        transport = net.transport
        assert transport.messages_by_method()["get_successor"] == 2 * dht.cost.next_calls
        assert sum(transport.messages_by_method().values()) == transport.messages_sent

    def test_walk_view_points_and_runs(self):
        net = ChordNetwork.build(40, m=16, rng=random.Random(73), perfect=False)
        for victim in random.Random(74).sample(net.sorted_ids(), 4):
            net.crash_node(victim)
        view = net.snapshot().walk_view()
        assert view is net.snapshot().walk_view()  # cached per state
        ids = net.sorted_ids()
        assert view.ids.tolist() == ids
        assert view.points.tolist() == [id_to_point(i, net.m) for i in ids]
        n = len(ids)
        for p in range(n):
            run = 0
            while run < n and net.nodes[ids[(p + run) % n]].get_successor() == ids[(p + run + 1) % n]:
                run += 1
            assert min(int(view.run[p]), n) == run
        net.stabilize_round()
        assert net.snapshot().walk_view() is not view

    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    def test_refused_configurations_walk_per_call(self, refusal):
        kwargs, install = REFUSALS[refusal]
        dht_a, dht_b = build_twins(75, n=48, **kwargs)
        if install is not None:
            install(dht_a._network)
            install(dht_b._network)
        assert dht_a.walk_view() is None
        without_walk_view(dht_b)
        calls_a, calls_b = count_next(dht_a), count_next(dht_b)
        engine_a = BatchSampler(dht_a, n_hat=48.0)
        engine_b = BatchSampler(dht_b, params=engine_a.params)
        xs = points(120, 20)
        assert engine_a.trial_many(xs) == engine_b.trial_many(xs)
        assert_walk_charges_equal(dht_a, dht_b)
        assert calls_a and len(calls_a) == len(calls_b)

    @pytest.mark.parametrize("crashes", [0, 3])
    def test_traced_replay_reports_the_per_call_spans(self, crashes):
        # A traced batch keeps the replay; each replayed hop reaches the
        # tracer as the get_successor rpc span the live call reports.
        dht_a, dht_b = build_twins(66, n=64, crashes=crashes)
        sinks = []
        for dht in (dht_a, dht_b):
            sinks.append(_RecordingSink())
            dht._network.transport.install_tracer(sinks[-1])
        without_walk_view(dht_b)
        calls_a, calls_b = count_next(dht_a), count_next(dht_b)
        engine_a = BatchSampler(dht_a, n_hat=64.0)
        engine_b = BatchSampler(dht_b, params=engine_a.params)
        xs = points(120, 21)
        assert engine_a.trial_many(xs) == engine_b.trial_many(xs)
        assert_walk_charges_equal(dht_a, dht_b)
        assert sinks[0].events == sinks[1].events
        assert any(e[0] == "rpc" and e[3] == "get_successor" for e in sinks[0].events)
        assert len(calls_a) < len(calls_b)
        if not crashes:
            assert not calls_a

    def test_stale_trials_counted_on_terminal_failures(self):
        # recursive mode + crashes: some resolutions fail terminally and
        # must surface as redrawn stale trials, never an exception
        dht_a, _ = build_twins(65, n=64, crashes=8, mode="recursive")
        engine = BatchSampler(dht_a, n_hat=64.0, rng=random.Random(66))
        results = engine.trial_many(points(150, 16))
        assert len(results) == 150
        failed = [r for r in results if r.peer is None]
        assert engine.stale_trials >= 0
        assert all(r.peer is None or r.peer.peer_id in dht_a._network.nodes
                   for r in results)
        # hard failures show up as EXHAUSTED, not exceptions
        assert len(failed) + sum(r.peer is not None for r in results) == 150
