"""A Chord ring's nodes exist only once something addresses them.

A perfect build writes the ring store and creates no node.  The
transport asks the ring's membership for a target it has not seen yet,
which creates that node from its store rows, as does ``nodes[...]``.
Serving draws on the lockstep path therefore creates only the nodes its
live deliveries reach, and creating every node up front changes nothing
a script of protocol operations can observe.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BatchSampler
from repro.dht.chord.async_lookup import lookup_async, lookup_recursive_async
from repro.dht.chord.network import ChordNetwork
from repro.dht.chord.node import LookupError_
from repro.dht.idspace import draw_distinct_ids
from repro.sim.async_net import drive

M = 10


def _created(net) -> set[int]:
    """The ids whose node object exists: in the membership table and
    registered with the transport."""
    table = {node_id for node_id, node in net._table.items() if node is not None}
    assert table == set(net.transport._nodes)
    return table


class DeliverySink:
    """Collects the target of every answered exchange the transport
    delivers; the walk spans a lockstep commit replays from the ring
    store are set apart, since they deliver nothing."""

    active = True

    def __init__(self):
        self.delivered: set[int] = set()
        self.replayed: set[int] = set()
        self.replaying = False

    def on_rpc(self, source, target, method, kind, start, end, outcome):
        if outcome == "ok":
            (self.replayed if self.replaying else self.delivered).add(target)

    def on_lookup(self, backend, hops, messages, latency, ok):
        pass


def test_serving_a_perfect_ring_creates_only_the_nodes_it_addresses(monkeypatch):
    net = ChordNetwork.build(2_000, m=16, rng=random.Random(41))
    assert _created(net) == set()

    asked: set[int] = set()
    members = type(net.nodes)
    get_item = members.__getitem__

    def recording_get_item(self, node_id):
        asked.add(node_id)
        return get_item(self, node_id)

    monkeypatch.setattr(members, "__getitem__", recording_get_item)
    sink = net.transport.install_tracer(DeliverySink())
    dht = net.dht()
    trace_commit = dht._trace_commit

    def replaying_trace_commit(*args):
        sink.replaying = True
        try:
            trace_commit(*args)
        finally:
            sink.replaying = False

    monkeypatch.setattr(dht, "_trace_commit", replaying_trace_commit)

    engine = BatchSampler(dht)  # Estimate-n walks the ring with live next calls
    assert engine.warm()
    peers = engine.sample_many(100)

    assert len(peers) == 100
    assert dht.batch_stats.percall == 0 and dht.batch_stats.lockstep > 0
    created = _created(net)
    assert created == sink.delivered | asked
    assert 0 < len(created) <= 64
    assert sink.replayed - created  # replayed walks reached peers never created


def test_a_node_first_addressed_after_splices_takes_its_wired_predecessor():
    """Nothing has told a node created after a join and a crash of
    either: it starts from the predecessor the last wiring gave it, the
    crashed one included, not from its neighbour in the spliced ring."""
    net = ChordNetwork.build(12, m=M, rng=random.Random(5))
    wired = net.sorted_ids()
    joined = next(i for i in range(wired[3] + 1, wired[4]) if i not in wired)
    net.join_node(joined)
    victim = next(i for i in wired[6:] if i not in _created(net))
    net.crash_node(victim)
    later = [i for i in wired if i != victim and i not in _created(net)]
    assert wired[wired.index(victim) + 1] in later
    assert not net.predecessors_correct()
    for node_id in later:
        assert net.nodes[node_id].predecessor == wired[wired.index(node_id) - 1]


OPS = ("join", "crash", "leave", "stabilize", "rewire", "lookup", "recursive", "h_many")


def _outcome(call, *args):
    """What ``call(*args)`` returned, as owner and hops or peer ids, or
    the error it failed with."""
    try:
        result = call(*args)
    except LookupError_ as exc:
        return str(exc)
    if isinstance(result, list):
        return [peer.peer_id for peer in result]
    return result.node_id, result.hops


def _run_script(net, ops, rng) -> list:
    """Apply ``ops`` to ``net``; return what every operation returned."""
    dht = net.dht()
    asynchronous = net.transport.asynchronous
    out = []
    for op in ops:
        live = net.sorted_ids()
        target = rng.randrange(1 << M)
        if op == "join":
            out.append(net.join_node().node_id)
        elif op == "crash" and len(live) > 4:
            net.crash_node(rng.choice(live))
        elif op == "leave" and len(live) > 4:
            net.leave_node(rng.choice(live))
        elif op == "stabilize":
            net.stabilize_round()
        elif op == "rewire":
            net.rewire_perfectly()
        elif op == "lookup":
            node = net.nodes[rng.choice(live)]
            out.append(_outcome(node.lookup, target))
            if asynchronous:
                out.append(_outcome(drive, net.sim, lookup_async(node, target)))
        elif op == "recursive":
            node = net.nodes[rng.choice(live)]
            out.append(_outcome(node.lookup_recursive, target))
            if asynchronous:
                out.append(_outcome(drive, net.sim, lookup_recursive_async(node, target)))
        elif op == "h_many":
            out.append(_outcome(dht.h_many, [1.0 - rng.random() for _ in range(6)]))
    return out


def _transport_state(net) -> tuple:
    transport = net.transport
    counters = transport.metrics.counters()
    return (
        transport.messages_sent,
        counters.get("rpc.calls", 0),
        counters.get("rpc.timeouts", 0),
        transport.elapsed,
        transport.messages_by_method(),
        net.sim.now,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.booleans(),
    st.integers(min_value=6, max_value=20),
    st.integers(min_value=0, max_value=2**16),
    st.lists(st.sampled_from(OPS), min_size=1, max_size=10),
)
def test_creating_every_node_first_changes_nothing(asynchronous, n, seed, ops):
    """Two rings from one seed: one creates every node right after its
    build, the other as each is first addressed.  The same script must
    leave them equal in results, ring state, node fields, transport
    charges, membership order and the network's random stream."""
    eager, lazy = (
        ChordNetwork.build(n, m=M, rng=random.Random(seed), async_transport=asynchronous)
        for _ in range(2)
    )
    assert len(list(eager.nodes.values())) == n
    assert _created(eager) == set(eager.nodes) and _created(lazy) == set()

    results = [_run_script(net, ops, random.Random(seed + 1)) for net in (eager, lazy)]

    assert results[0] == results[1]
    assert eager.snapshot().canonical_state() == lazy.snapshot().canonical_state()
    assert list(eager.nodes) == list(lazy.nodes)
    assert _transport_state(eager) == _transport_state(lazy)
    assert eager.rng.getstate() == lazy.rng.getstate()
    assert [
        (node.predecessor, node._next_finger) for node in eager.nodes.values()
    ] == [(node.predecessor, node._next_finger) for node in lazy.nodes.values()]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=6, max_value=20),
    st.integers(min_value=0, max_value=2**16),
    st.lists(
        st.sampled_from(("join", "rejoin", "crash", "leave", "stabilize", "lookup")),
        min_size=1,
        max_size=12,
    ),
)
def test_membership_iterates_in_draw_then_join_order(n, seed, ops):
    """``nodes`` lists the build's draw, less the departed ids, plus each
    join appended -- a re-joined id last -- whatever order its nodes were
    created in."""
    net = ChordNetwork.build(n, m=M, rng=random.Random(seed))
    expected = draw_distinct_ids(random.Random(seed), M, n)
    departed: list[int] = []
    rng = random.Random(seed + 1)
    for op in ops:
        live = net.sorted_ids()
        if op == "join":
            expected.append(net.join_node().node_id)
        elif op == "rejoin" and departed:
            node_id = departed.pop(rng.randrange(len(departed)))
            net.join_node(node_id)
            expected.append(node_id)
        elif op in ("crash", "leave") and len(live) > 4:
            node_id = rng.choice(live)
            (net.crash_node if op == "crash" else net.leave_node)(node_id)
            expected.remove(node_id)
            departed.append(node_id)
        elif op == "stabilize":
            net.stabilize_round()
        elif op == "lookup":
            _outcome(net.nodes[rng.choice(live)].lookup, rng.randrange(1 << M))
        assert list(net.nodes) == expected
        assert len(net.nodes) == len(expected)
        assert all(node_id in net.nodes for node_id in expected)
        assert not any(node_id in net.nodes for node_id in departed)
