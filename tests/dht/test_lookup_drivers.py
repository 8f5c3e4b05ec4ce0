"""Property: the three drivers of Chord's one iterative lookup agree.

:func:`~repro.dht.chord.node.iterative_lookup` runs inline on the sync
transport (``ChordNode.lookup``), spawned on the async one
(``lookup_async``), and answered from the ring store
(``_sim_iterative``).  On rings with crashed nodes that fingers and
successor lists still name, and with hop budgets small enough that
timeouts land on the budget's boundary, all three must return the same
owner and hops (or fail at the same hop count) and charge the same
messages, latency, calls and timeouts.  The intact-ring case is
``tests/sim/test_transport_equivalence.py``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.chord.async_lookup import lookup_async
from repro.dht.chord.batch import _sim_iterative
from repro.dht.chord.network import ChordNetwork
from repro.dht.chord.node import LookupError_
from repro.sim.async_net import drive
from repro.sim.network import ConstantLatency

M = 10


class OutcomeSink:
    """Records each exchange and its outcome: ``"ok"``, or why it went
    unanswered, which both planes word alike."""

    active = True

    def __init__(self):
        self.events = []

    def on_rpc(self, source, target, method, kind, start, end, outcome):
        self.events.append((source, target, method, kind, outcome))


def _counters(transport):
    counters = transport.metrics.counters()
    return (
        transport.messages_sent,
        transport.elapsed,
        counters.get("rpc.calls", 0),
        counters.get("rpc.timeouts", 0),
    )


def _outcome(lookup, *args, **kwargs):
    """``(owner, hops)`` of a lookup, ``(-1, hops)`` when it fails."""
    try:
        result = lookup(*args, **kwargs)
    except LookupError_ as exc:
        return -1, exc.hops
    return result.node_id, result.hops


def _spawned(net, entry, target, max_hops):
    """``lookup_async`` from ``entry``, driven to its end."""
    return drive(net.sim, lookup_async(net.nodes[entry], target, max_hops=max_hops))


crashed_rings = st.tuples(
    st.integers(min_value=8, max_value=28),  # n
    st.integers(min_value=0, max_value=2**16),  # build seed
    st.integers(min_value=1, max_value=4),  # unstabilized crashes
    st.sampled_from([1, 2, 3, 4, 6, None]),  # max_hops (None: the default)
    st.lists(st.integers(min_value=0, max_value=(1 << M) - 1), min_size=1, max_size=4),
)


@given(crashed_rings)
@settings(max_examples=25, deadline=None)
def test_three_drivers_agree_on_crashed_rings(case):
    n, seed, crashes, max_hops, targets = case
    sync_net, async_net = (
        ChordNetwork.build(
            n, m=M, rng=random.Random(seed), latency=ConstantLatency(1.0),
            async_transport=async_transport,
        )
        for async_transport in (False, True)
    )
    entry = min(sync_net.nodes)
    victims = random.Random(seed).sample(sorted(sync_net.nodes)[1:], crashes)
    for net in (sync_net, async_net):
        for victim in victims:
            net.crash_node(victim)
    sync_sink, async_sink = OutcomeSink(), OutcomeSink()
    sync_net.transport.install_tracer(sync_sink)
    async_net.transport.install_tracer(async_sink)
    budget = max_hops if max_hops is not None else 4 * M
    for target in targets:
        replay = _sim_iterative(sync_net.snapshot(), entry, target, budget, 2.0, 8.0)
        before = _counters(sync_net.transport)
        live = _outcome(sync_net.nodes[entry].lookup, target, max_hops=max_hops)
        after = _counters(sync_net.transport)
        assert _outcome(_spawned, async_net, entry, target, max_hops) == live
        assert (replay.owner, replay.hops) == live
        assert replay.ok == (live[0] != -1)
        assert (replay.messages, replay.latency, replay.rpc_calls, replay.rpc_timeouts) == (
            after[0] - before[0],
            after[1] - before[1],
            after[2] - before[2],
            after[3] - before[3],
        )
    assert async_sink.events == sync_sink.events
    assert _counters(async_net.transport) == _counters(sync_net.transport)


def test_a_timeout_that_spends_the_budget_still_re_asks():
    # The route client -> a -> b, with b a's successor and the target
    # just past b.  Crash b and give the lookup a budget of 2: b's
    # timeout spends the budget, and the re-ask of a (which now answers
    # 'done' at b's successor) still runs, so every driver succeeds at
    # exactly 2 hops.  A budget check between a forward's timeout and
    # its re-ask would fail this lookup.
    sync_net, async_net = (
        ChordNetwork.build(
            24, m=M, rng=random.Random(5), latency=ConstantLatency(1.0),
            async_transport=async_transport,
        )
        for async_transport in (False, True)
    )
    nodes = sync_net.nodes
    entry = min(nodes)
    target, b = next(
        (target, b)
        for target in range(1 << M)
        for kind_a, a in [nodes[entry].lookup_step(target)]
        if kind_a == "forward" and a != entry
        for kind_b, b in [nodes[a].lookup_step(target)]
        if kind_b == "forward" and b == nodes[a].successors[0] != entry
        and nodes[a].lookup_step(target, (b,))[0] == "done"
    )
    for net in (sync_net, async_net):
        net.crash_node(b)
    expected = _outcome(nodes[entry].lookup, target, max_hops=2)
    assert expected[0] != -1 and expected[1] == 2
    assert _outcome(_spawned, async_net, entry, target, 2) == expected
    replay = _sim_iterative(sync_net.snapshot(), entry, target, 2, 2.0, 8.0)
    assert (replay.owner, replay.hops, replay.ok) == (*expected, True)
