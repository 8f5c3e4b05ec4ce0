"""The lockstep batch lookup engine: exact equivalence with scalar lookups.

The engine's contract (see :mod:`repro.dht.chord.batch`) is *replay*,
not approximation: ``h_many`` must return the identical peers, charge
the identical meter/transport amounts, and take the identical hop
counts as a loop of scalar ``h`` calls under the same seeds -- on
healthy rings, with crashed nodes still referenced by finger tables and
successor lists, and in both lookup modes.  These tests pin that
contract, plus the epoch-keyed caching it rides on.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.adversary.state import AdversaryState
from repro.compat import load_numpy
from repro.core.engine import BatchSampler, _Block
from repro.core.sampler import RandomPeerSampler
from repro.dht.api import BulkDHT
from repro.dht.chord import ChordNetwork
from repro.dht.chord import batch as batch_mod
from repro.dht.chord.batch import (
    Lookups,
    RingSnapshot,
    _sim_iterative,
    _sim_recursive,
    build_route_table,
    lockstep_resolve,
)
from repro.dht.chord.idspace import id_to_point, point_to_target_id
from repro.dht.chord.node import LookupError_, hop_budget
from repro.dht.chord.soa import SoAChordNetwork
from repro.faults.state import FaultState
from repro.sim.network import UniformLatency

np = load_numpy()
#: Whether the numpy lane (and with it the walk replay) is live.
NUMPY = np is not None


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
        assert table_reads == ([batch] if self.warm and NUMPY else [])

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
        assert bool(table_reads) == (self.warm and NUMPY)

    def test_imperfect_ring_from_sequential_joins(self, table_reads):
        # A ring built by the real join protocol has imperfect tables;
        # the replay must follow them, not an oracle route.
        dht_a, dht_b, lanes = build_twins(13, n=24, perfect=False, copies=3)
        warm_first(dht_a, self.warm)
        xs = points(150, 7)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs) == lanes.h_many(xs)
        assert_charges_equal(dht_a, dht_b)
        assert_lanes_equal(dht_a, lanes)
        assert bool(table_reads) == (self.warm and NUMPY)

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
        assert bool(table_reads) == (self.warm and NUMPY)


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
    """Strip every finger and all but the first successor (a direct edit).

    Lookups then walk the ring one successor at a time, so on a ring
    longer than the hop budget some of them exhaust it with every
    reference live.
    """
    for node in net.nodes.values():
        node.fingers = [None] * net.m
        del node.successors[1:]
    net.bump_epoch()


#: Ring and vantage changes applied to both twins after the batched twin
#: is warmed; each must stop its route table from being read.
STALE = {
    "join": lambda dht: dht._network.join_node(),
    "crash": lambda dht: dht._network.crash_node(dht._network.sorted_ids()[7]),
    "leave": lambda dht: dht._network.leave_node(dht._network.sorted_ids()[9]),
    "stabilize": lambda dht: dht._network.stabilize_round(),
    "bump-epoch": lambda dht: dht._network.bump_epoch(),
    "entry-failover": lambda dht: dht._network.crash_node(dht.entry_id),
    "entry-moved": lambda dht: dht.refresh_entry(dht._network.sorted_ids()[5]),
}


class TestRouteTable:
    """One lookup per owner arc, read while the ring stays as warmed.

    Under ``REPRO_PURE_PYTHON`` no table is built and every batch runs
    the lanes; the equivalences must hold either way.
    """

    @pytest.mark.skipif(not NUMPY, reason="route tables exist on the numpy lane only")
    def test_every_target_matches_the_python_replay(self, table_reads):
        # Every identifier of small spaces, so every target of every arc,
        # from an entry that is not the lowest id (once n > 1).
        for m, n, wiring, mode in itertools.product(
            (6, 8, 10),
            (1, 2, 3, 24, 60),
            ("perfect", "joined", "successor-only"),
            ("iterative", "recursive"),
        ):
            net = ChordNetwork.build(
                n, m=m, rng=random.Random(100 * m + n), perfect=wiring != "joined"
            )
            if wiring == "successor-only":
                successor_only(net)
            snap = net.snapshot()
            ids = net.sorted_ids()
            entry = ids[len(ids) // 2]
            costs = {"mode": mode, "rpc_latency": 2.0, "oneway_latency": 1.0, "timeout": 8.0}
            assert build_route_table(snap, entry, **costs)
            sim, lat = (_sim_iterative, 2.0) if mode == "iterative" else (_sim_recursive, 1.0)
            targets = list(range(1 << m))
            expected = [sim(snap, entry, t, hop_budget(m), lat, 8.0) for t in targets]
            case = (m, n, wiring, mode)
            assert lockstep_resolve(snap, entry, targets, **costs) == expected, case
            assert table_reads.pop() == len(targets), case
            # A 60-node successor walk outruns every budget: failing arcs.
            failing = not all(t.ok for t in expected)
            assert failing == (wiring == "successor-only" and n == 60), case

    @pytest.mark.parametrize("mode", ["iterative", "recursive"])
    def test_budget_exhausting_arcs_delegate_as_the_lanes_do(self, mode, table_reads):
        dht_a, dht_b, lanes = build_twins(86, n=60, m=6, mode=mode, copies=3)
        for dht in (dht_a, dht_b, lanes):
            successor_only(dht._network)
        assert dht_a.warm_lockstep()
        if NUMPY:
            assert (dht_a._network.snapshot().route.hops < 0).any()
        xs = points(80, 34)
        expected = scalar_loop(dht_b, xs, tolerant=True)
        assert dht_a.resolve_many(xs) == expected == lanes.resolve_many(xs)
        assert_charges_equal(dht_a, dht_b)
        assert_lanes_equal(dht_a, lanes)
        assert dht_a.batch_stats.delegated > 0
        assert bool(table_reads) == NUMPY

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
        assert rebuilt == (NUMPY and change not in ("crash", "entry-failover", "leave"))
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
        assert table_reads == ([100] if NUMPY else [])

    def test_traced_batches_read_the_table(self, table_reads):
        dht_a, dht_b = build_twins(83, n=64)
        sinks = [_RecordingSink(), _RecordingSink()]
        for dht, sink in zip((dht_a, dht_b), sinks):
            dht._network.transport.install_tracer(sink)
        assert dht_a.warm_lockstep()
        xs = points(120, 33)
        assert dht_a.h_many(xs) == dht_b.h_many(xs)
        assert table_reads == ([120] if NUMPY else [])
        assert sinks[0].events == sinks[1].events
        assert [e[0] for e in sinks[0].events] == ["lookup"] * 120

    @pytest.mark.parametrize("mode", ["iterative", "recursive"])
    @pytest.mark.parametrize("crashes", [0, 2])
    def test_soa_h_and_h_many_read_the_table(self, crashes, mode, table_reads):
        nets = [SoAChordNetwork.build(48, m=16, rng=random.Random(84)) for _ in range(2)]
        victims = random.Random(85).sample(nets[0].sorted_ids()[1:], crashes)
        for net in nets:
            for victim in victims:
                net.crash_node(victim)
        dht_a, dht_b = (net.dht(lookup_mode=mode) for net in nets)
        assert dht_a.warm_lockstep()
        assert (nets[0].store.route is not None) == (NUMPY and not crashes)
        xs = points(60, 35)
        assert dht_a.h_many(xs) == scalar_loop(dht_b, xs)
        assert [dht_a.h(x) for x in xs[:3]] == scalar_loop(dht_b, xs[:3])
        assert dht_a.cost.snapshot() == dht_b.cost.snapshot()
        assert table_reads == ([60, 1, 1, 1] if NUMPY and not crashes else [])


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
        net = ChordNetwork.build(16, m=16, rng=random.Random(42))
        before = net.churn_epoch
        mutate(net)
        assert net.churn_epoch > before

    def test_snapshot_patched_in_place_when_epoch_moves(self):
        net = ChordNetwork.build(16, m=16, rng=random.Random(43))
        snap = net.snapshot()
        assert net.snapshot() is snap
        assert net.snapshot_builds == 1
        n_before = snap.n
        net.crash_node(max(net.nodes))
        fresh = net.snapshot()
        # Churn through the network API patches the live snapshot
        # incrementally -- no second full build.
        assert fresh is snap
        assert net.snapshot_builds == 1
        assert net.snapshot_patches >= 1
        assert fresh.n == n_before - 1
        # ... and the patched state is exactly what a rebuild would give.
        assert fresh.canonical_state() == RingSnapshot.build(net).canonical_state()

    def test_direct_mutation_forces_full_rebuild(self):
        net = ChordNetwork.build(16, m=16, rng=random.Random(47))
        snap = net.snapshot()
        some_id = net.sorted_ids()[0]
        net.nodes[some_id].successors.append(net.sorted_ids()[2])
        net.bump_epoch()  # the documented contract for direct mutation
        fresh = net.snapshot()
        assert fresh is not snap
        assert net.snapshot_builds == 2

    def test_snapshot_copies_node_state(self):
        # later in-place mutation of live lists must not leak into a
        # snapshot someone may still be holding
        net = ChordNetwork.build(8, m=16, rng=random.Random(44))
        snap = net.snapshot()
        some_id = net.sorted_ids()[0]
        saved = tuple(snap.succ_lists[snap.pos[some_id]])
        net.nodes[some_id].successors.append(12345)
        assert tuple(snap.succ_lists[snap.pos[some_id]]) == saved

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
        columns = [list(c) for c in zip(*rows)]
        hops = [rng.randrange(30) for _ in rows]
        if NUMPY:
            columns = [np.array(c, dtype=d) for c, d in zip(columns, Lookups._DTYPES)]
            hops = np.array(hops, dtype=np.int64)
        found = Lookups(*columns)
        codes = [2] * len(rows)  # all exhausted: no peer to materialize
        if NUMPY:
            codes = np.array(codes, dtype=np.int8)
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
        ],
        ids=["perfect", "imperfect", "crashed", "crashed-recursive", "recursive", "n1", "n2"],
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
        if NUMPY:
            assert len(calls_a) < len(calls_b)
            if case.get("crashes", 0) <= 3 and "mode" not in case:
                assert len(calls_a) < len(calls_b) / 2
            if "crashes" not in case:
                assert not calls_a

    def test_mid_round_stabilization_rereads_the_view(self):
        # A walk that meets the crashed node re-resolves through h, whose
        # recursive lookup fails and stabilizes the ring mid-round; the
        # trials after it must see the stabilized ring.
        dht_a, dht_b = build_twins(61, n=64, crashes=1, mode="recursive")
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
        xs = points(40, 62)
        assert engine_a.trial_many(xs) == engine_b.trial_many(xs)
        assert_walk_charges_equal(dht_a, dht_b)
        assert net.churn_epoch > resolved_at[0]  # stabilized during the walks
        assert calls_a and len(calls_a) <= len(calls_b)
        if NUMPY:
            assert len(calls_a) < len(calls_b) / 10

    @pytest.mark.parametrize("crashes", [0, 2])
    def test_soa_walk_replay_matches_per_call_walk(self, crashes):
        nets = [SoAChordNetwork.build(48, m=16, rng=random.Random(69)) for _ in range(2)]
        victims = random.Random(70).sample(nets[0].sorted_ids()[1:], crashes)
        for net in nets:
            for victim in victims:
                net.crash_node(victim)
        dht_a, dht_b = nets[0].dht(), without_walk_view(nets[1].dht())
        calls_a, calls_b = count_next(dht_a), count_next(dht_b)
        engine_a = BatchSampler(dht_a, n_hat=48.0)
        engine_b = BatchSampler(dht_b, params=engine_a.params)
        xs = points(150, 19)
        assert engine_a.trial_many(xs) == engine_b.trial_many(xs)
        assert dht_a.cost.snapshot() == dht_b.cost.snapshot()
        if NUMPY:
            assert len(calls_a) < len(calls_b)

    @pytest.mark.skipif(not NUMPY, reason="walks replay on the numpy lane only")
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

    @pytest.mark.skipif(not NUMPY, reason="the walk view exists on the numpy lane only")
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
        if NUMPY:
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
