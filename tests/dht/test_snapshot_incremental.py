"""Properties of the one ring state under any churn script.

A :class:`~repro.dht.chord.network.ChordNetwork`'s ring store *is* its
state: after any interleaving of join / crash / leave / stabilize, the
store's arrays, decoded by ``canonical_state()``, must hold exactly the
successor lists and finger tables every live node reports, and the
lockstep replays routed on it must equal the live per-call path.  The
struct-of-arrays Kademlia substrate must converge to its live
membership.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BatchSampler
from repro.dht.chord.batch import RingSnapshot
from repro.dht.chord.network import ChordNetwork
from repro.dht.chord.node import LookupError_
from repro.dht.kademlia.routing import SoAKademliaNetwork

M = 12

# op codes drawn by the strategies; weights keep membership mostly stable
OPS = ("join", "crash", "leave", "stabilize", "snapshot")


@st.composite
def op_scripts(draw, min_ops=4, max_ops=24):
    n = draw(st.integers(min_value=4, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    ops = draw(
        st.lists(
            st.sampled_from(OPS),
            min_size=min_ops,
            max_size=max_ops,
        )
    )
    return n, seed, ops


def _reported_state(net):
    """What every live node reports through ``successors`` and
    ``fingers``, spelled as ``canonical_state()`` spells the store:
    ``(id, successor-tuple, finger-tuple)`` per live member in id order."""
    return tuple(
        (node_id, tuple(net.nodes[node_id].successors), tuple(net.nodes[node_id].fingers))
        for node_id in sorted(net.nodes)
    )


def _run_script(net, ops, rng, *, min_live=3):
    """Apply an op script to any substrate exposing the churn verbs.

    Returns the number of intermediate ``snapshot()`` drains performed,
    so callers can assert the incremental path was actually exercised.
    """
    drains = 0
    for op in ops:
        live = net.sorted_ids()
        if op == "join":
            net.join_node()
        elif op == "crash" and len(live) > min_live:
            net.crash_node(rng.choice(live))
        elif op == "leave" and len(live) > min_live:
            net.leave_node(rng.choice(live))
        elif op == "stabilize":
            net.stabilize_round()
        elif op == "snapshot" and hasattr(net, "snapshot"):
            net.snapshot()
            drains += 1
    return drains


@settings(max_examples=20, deadline=None)
@given(op_scripts(), st.booleans())
def test_chord_store_holds_what_every_node_reports(case, perfect):
    """After every op the store's arrays decode to every live node's rows.

    The store is the one object ``snapshot()`` returns from the build
    on, and never rebuilt.  Nodes read only some of their rows before
    the check, so both rows a node has written and rows it never read
    are compared.
    """
    n, seed, ops = case
    rng = random.Random(seed)
    net = ChordNetwork.build(n, m=M, rng=random.Random(seed + 1), perfect=perfect)
    store = net.snapshot()
    assert store.canonical_state() == _reported_state(net)
    for op in ops:
        _run_script(net, [op], rng)
        assert net.snapshot() is store
        assert store.canonical_state() == _reported_state(net)
    assert net.snapshot_builds == 1


def test_a_removed_node_keeps_its_own_rows():
    """A crashed node's object outlives its slot in the store.

    A join takes the freed slot over, while the crashed object can still
    run (an asynchronous hop in flight resumes on it): it must answer
    from, and write to, its own last rows, never the joiner's.  The twin
    ring has the same crash and no join.
    """
    nets = [ChordNetwork.build(24, m=M, rng=random.Random(31)) for _ in range(2)]
    victim_id = nets[0].sorted_ids()[5]
    store = nets[0].snapshot()
    slot = store.slot(victim_id)
    last_rows = {i: (s, f) for i, s, f in store.canonical_state()}[victim_id]
    victims = [net.nodes[victim_id] for net in nets]
    for net in nets:
        net.crash_node(victim_id)
    joiner = nets[0].join_node()
    assert store.slot(joiner.node_id) == slot
    joiner_rows = (tuple(joiner.successors), tuple(joiner.fingers))

    reused, untouched = victims
    assert (tuple(reused.successors), tuple(reused.fingers)) == last_rows
    for target in range(0, 1 << M, 37):
        assert reused.lookup_step(target) == untouched.lookup_step(target)
    candidate = victim_id + 1
    assert candidate != reused.get_successor()
    for victim in victims:
        victim.offer_successor(candidate)  # a protocol write on the dead object
    assert reused.successors == untouched.successors
    assert reused.get_successor() == candidate
    assert (tuple(joiner.successors), tuple(joiner.fingers)) == joiner_rows
    assert store.canonical_state() == _reported_state(nets[0])


@settings(max_examples=20, deadline=None)
@given(op_scripts(), st.integers(min_value=0, max_value=2**16))
def test_chord_walk_replay_matches_per_call_walk_after_churn(case, point_seed):
    """Walks replayed from the maintained snapshot equal per-call walks.

    Twin rings run the same script; one then samples with its walk view
    disabled, walking through per-call ``next``.  Crashed successors,
    unstabilized joins and stabilization triggered mid-round must leave
    the trials and every charge identical.
    """
    n, seed, ops = case
    nets = []
    for _ in range(2):
        net = ChordNetwork.build(n, m=M, rng=random.Random(seed + 6))
        net.snapshot()
        _run_script(net, ops, random.Random(seed))
        nets.append(net)
    dht_a, dht_b = nets[0].dht(), nets[1].dht()
    dht_b.walk_view = lambda: None
    engine_a = BatchSampler(dht_a, n_hat=float(len(nets[0])))
    engine_b = BatchSampler(dht_b, params=engine_a.params)
    rng = random.Random(point_seed)
    xs = [1.0 - rng.random() for _ in range(60)]
    assert engine_a.trial_many(xs) == engine_b.trial_many(xs)
    assert dht_a.cost.snapshot() == dht_b.cost.snapshot()
    ta, tb = nets[0].transport, nets[1].transport
    assert ta.elapsed == tb.elapsed
    assert ta.messages_by_method() == tb.messages_by_method()
    for counter in ("rpc.calls", "rpc.timeouts", "messages"):
        assert ta.metrics.counter(counter).value == tb.metrics.counter(counter).value


def _served(call):
    """What a lookup sequence returned, or the error it raised with."""
    try:
        return call()
    except LookupError_ as exc:
        return str(exc)


# 32 bits is bench_scale's width, too wide for the store's id -> slot table.
@pytest.mark.parametrize("m", [M, 32], ids=["chord", "chord-m32"])
@settings(max_examples=20, deadline=None)
@given(op_scripts(), st.integers(min_value=0, max_value=2**16), st.data())
def test_warmed_h_many_matches_scalar_loop_after_churn(m, case, point_seed, data):
    """A route table warmed mid-script never answers for a changed ring.

    Twin rings run the same script; one is warmed partway through and
    again at the end (as serving set-up and churn recovery do), then
    serves ``h_many``.  It must equal the other twin's scalar ``h`` loop
    in peers and charges, whether the table is current, stale or
    refused.
    """
    n, seed, ops = case
    cut = data.draw(st.integers(min_value=0, max_value=len(ops)), label="warm at")
    nets = [ChordNetwork.build(n, m=m, rng=random.Random(seed + 7)) for _ in range(2)]
    rngs = [random.Random(seed), random.Random(seed)]
    dhts = [net.dht() for net in nets]
    for net, rng in zip(nets, rngs):
        net.snapshot()
        _run_script(net, ops[:cut], rng)
    dhts[0].warm_lockstep()
    for net, rng in zip(nets, rngs):
        _run_script(net, ops[cut:], rng)
    dhts[0].warm_lockstep()
    rng = random.Random(point_seed)
    xs = [1.0 - rng.random() for _ in range(60)]
    batched = _served(lambda: dhts[0].h_many(xs))
    assert batched == _served(lambda: [dhts[1].h(x) for x in xs])
    assert dhts[0].cost.snapshot() == dhts[1].cost.snapshot()
    ta, tb = nets[0].transport, nets[1].transport
    assert ta.elapsed == tb.elapsed
    for counter in ("rpc.calls", "rpc.timeouts", "messages"):
        assert ta.metrics.counter(counter).value == tb.metrics.counter(counter).value


@settings(max_examples=20, deadline=None)
@given(op_scripts())
def test_chord_rewire_after_churn_matches_fresh_build(case):
    """After any churn script a perfect rewiring leaves the store in the
    state a fresh build over the live membership holds.

    Splices reuse freed slots, so the stores are compared decoded.  The
    nodes created before the rewiring reload their rows, and every
    node, created before it or after, reports them and its ring
    predecessor.
    """
    n, seed, ops = case
    net = ChordNetwork.build(n, m=M, rng=random.Random(seed + 3))
    _run_script(net, ops, random.Random(seed))
    net.rewire_perfectly()
    fresh = RingSnapshot(M, np.array(net.sorted_ids(), dtype=np.int64), net._slist_size)
    fresh.wire_perfectly(net._slist_size)
    assert net.snapshot().canonical_state() == fresh.canonical_state()
    assert net.ring_is_correct() and net.predecessors_correct()
    assert _reported_state(net) == fresh.canonical_state()  # creates every node
    assert net.predecessors_correct()


def _assert_wired_by_definition(store, size):
    """Every live row of ``store`` holds the oracle wiring, computed here
    by bisection: finger ``f`` of ``x`` is the first live id at or after
    ``(x + 2^f) mod 2^m``, the successors are the next ``min(size, n)``
    ids, and ``succ_first`` is the first of them."""
    ids = store.sorted_ids_list()
    n, m = len(ids), store.m
    for k, x in enumerate(ids):
        slot = store.slot(x)
        succs = [ids[(k + j) % n] for j in range(1, min(size, n) + 1)]
        fingers = [ids[bisect_left(ids, (x + (1 << f)) % (1 << m)) % n] for f in range(m)]
        assert store.succs_at(slot) == succs, (x, slot)
        assert store.fingers_at(slot) == fingers, (x, slot)
        assert store.succ_first_np[slot] == succs[0], (x, slot)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=1, max_value=300),
    st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=12),
)
def test_wire_perfectly_writes_the_definition(m, n, sizes, seed, changes):
    """``wire_perfectly`` against its definition, on both sides of
    ``MAX_TABLE_BITS`` and of the rank table's size rule (small spaces
    full enough to take it), with successor lists longer than the ring:
    on a fresh store, then after joins and departures have freed slots
    and reordered them, rewired."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(1 << m), min(n, 1 << m)))
    store = RingSnapshot(m, np.array(ids, dtype=np.int64), sizes[0])
    store.wire_perfectly(sizes[0])
    _assert_wired_by_definition(store, sizes[0])
    for _ in range(changes):
        live = store.sorted_ids_list()
        if len(live) > 1 and (rng.random() < 0.5 or len(live) == 1 << m):
            store.apply_remove(rng.choice(live))
        else:
            node_id = rng.randrange(1 << m)
            while store.alive(node_id):
                node_id = rng.randrange(1 << m)
            store.apply_join(node_id, [node_id], [None] * m)
    store.wire_perfectly(sizes[1])
    _assert_wired_by_definition(store, sizes[1])


@settings(max_examples=20, deadline=None)
@given(op_scripts())
def test_soa_kademlia_arrays_match_fresh_membership(case):
    """basis/live arrays converge to the live membership after refresh."""
    n, seed, ops = case
    rng = random.Random(seed)
    net = SoAKademliaNetwork.build(n, m=M, k=6, rng=random.Random(seed + 5))
    _run_script(net, ops, rng)
    net.refresh_round()
    assert net.routing_is_correct()
    live = net.sorted_ids()
    assert live == sorted(live)
    assert len(set(live)) == len(live)


@pytest.mark.parametrize("build_n", [5, 17, 33])
def test_chord_join_leave_round_trip_is_exact(build_n):
    """Deterministic spot check: join k nodes, leave them, state returns."""
    net = ChordNetwork.build(build_n, m=M, rng=random.Random(99))
    net.rewire_perfectly()
    before = net.snapshot().canonical_state()
    joined = [net.join_node().node_id for _ in range(3)]
    net.rewire_perfectly()  # every row rewritten at once
    assert net.snapshot().canonical_state() != before
    for node_id in joined:
        net.leave_node(node_id)
    net.rewire_perfectly()
    assert net.snapshot().canonical_state() == before
