"""Property: incremental snapshot maintenance is bit-identical to rebuild.

The tentpole invariant of the struct-of-arrays substrate: any
interleaving of join / crash / leave / stabilize, with the snapshot
drained at arbitrary intermediate points, must leave the incrementally
patched :class:`RingSnapshot` in exactly the state a from-scratch
``RingSnapshot.build`` would produce -- same ids, same finger rows,
same successor lists, same liveness.  ``canonical_state()`` flattens
both to comparable tuples, decoded from the numpy arrays, so the
comparison exercises the array maintenance.  A live ring's snapshot
also keeps Python mirrors of its rows (``ids``, ``pos``,
``succ_lists``, ``finger_lists``), which the exact-replay lane routes
on hop by hop; the Chord properties check that those decode to the
rebuilt state too (:func:`_mirrored_state`).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BatchSampler
from repro.dht.chord.batch import RingSnapshot
from repro.dht.chord.network import ChordNetwork
from repro.dht.chord.node import LookupError_
from repro.dht.chord.soa import SoAChordNetwork
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


def _mirrored_state(snap):
    """A snapshot's Python list mirrors, spelled as ``canonical_state()``
    spells its arrays: ``(id, successor-tuple, finger-tuple)`` per live
    member in id order."""
    return tuple(
        (node_id, snap.succ_lists[snap.pos[node_id]], snap.finger_lists[snap.pos[node_id]])
        for node_id in snap.ids
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
@given(op_scripts())
def test_chord_incremental_snapshot_matches_rebuild(case):
    n, seed, ops = case
    rng = random.Random(seed)
    net = ChordNetwork.build(n, m=M, rng=random.Random(seed + 1))
    net.snapshot()  # seed the cache so churn goes down the patch path
    _run_script(net, ops, rng)
    incremental = net.snapshot()
    rebuilt = RingSnapshot.build(net)
    assert incremental.canonical_state() == rebuilt.canonical_state()
    assert _mirrored_state(incremental) == rebuilt.canonical_state()
    # Draining again without churn must be a no-op on the same object.
    again = net.snapshot()
    assert again is incremental
    assert again.canonical_state() == rebuilt.canonical_state()


@settings(max_examples=20, deadline=None)
@given(op_scripts())
def test_chord_mid_script_drains_stay_identical(case):
    """Snapshot drains at every step, not just at the end."""
    n, seed, ops = case
    rng = random.Random(seed)
    net = ChordNetwork.build(n, m=M, rng=random.Random(seed + 2))
    net.snapshot()
    for op in ops:
        _run_script(net, [op], rng)
        snap = net.snapshot()
        rebuilt = RingSnapshot.build(net).canonical_state()
        assert snap.canonical_state() == rebuilt
        assert _mirrored_state(snap) == rebuilt


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


@pytest.mark.parametrize("substrate", [ChordNetwork, SoAChordNetwork], ids=["chord", "chord-soa"])
@settings(max_examples=20, deadline=None)
@given(op_scripts(), st.integers(min_value=0, max_value=2**16), st.data())
def test_warmed_h_many_matches_scalar_loop_after_churn(substrate, case, point_seed, data):
    """A route table warmed mid-script never answers for a changed ring.

    Twin rings run the same script; one is warmed partway through and
    again at the end (as serving set-up and churn recovery do), then
    serves ``h_many``.  It must equal the other twin's scalar ``h`` loop
    in peers and charges, whether the table is current, stale or
    refused.
    """
    n, seed, ops = case
    cut = data.draw(st.integers(min_value=0, max_value=len(ops)), label="warm at")
    nets = [substrate.build(n, m=M, rng=random.Random(seed + 7)) for _ in range(2)]
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
    if substrate is ChordNetwork:
        ta, tb = nets[0].transport, nets[1].transport
        assert ta.elapsed == tb.elapsed
        for counter in ("rpc.calls", "rpc.timeouts", "messages"):
            assert ta.metrics.counter(counter).value == tb.metrics.counter(counter).value


@settings(max_examples=20, deadline=None)
@given(op_scripts())
def test_soa_chord_splice_matches_fresh_build(case):
    """SoA join/leave splices converge to the oracle-built store.

    Crashes deliberately leave stale rows (lookups route around them),
    so the script ends with one stabilize round -- the SoA analogue of
    letting the ring converge -- before demanding bit-identity with a
    from-scratch oracle build over the live membership.
    """
    n, seed, ops = case
    rng = random.Random(seed)
    net = SoAChordNetwork.build(n, m=M, rng=random.Random(seed + 3))
    _run_script(net, ops, rng)
    net.stabilize_round()
    live = net.sorted_ids()
    fresh = net._build_store(list(live))
    assert net.store.canonical_state() == fresh.canonical_state()
    assert net.ring_is_correct()


@settings(max_examples=20, deadline=None)
@given(op_scripts())
def test_soa_chord_churn_free_of_full_rebuilds(case):
    """Churn must be absorbed by patches; builds stay at the initial 1."""
    n, seed, ops = case
    rng = random.Random(seed)
    net = SoAChordNetwork.build(n, m=M, rng=random.Random(seed + 4))
    _run_script(net, ops, rng)
    assert net.snapshot_builds == 1


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
    net.rewire_perfectly()  # direct mutation path: forces a full rebuild
    assert net.snapshot().canonical_state() != before
    for node_id in joined:
        net.leave_node(node_id)
    net.rewire_perfectly()
    assert net.snapshot().canonical_state() == before
