"""Tests for the asynchronous message-level transport.

The contract under test (see the ``repro.sim.async_net`` module
docstring): each request/reply is its own scheduled delivery, timeouts
are real events that a reply cancels, latency draws happen at send time
while liveness is judged at delivery time, and the accounting matches
the sync plane (two messages + RTT on success, one message + a timeout
tick + the full interval when the request is lost, partitioned or meets
a dead target).  A reply-partitioned call is the known exception,
pinned by a strict xfail until both planes take one delivery rule.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.async_net import AsyncRpcTransport, Call, Future, drive
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantLatency, RpcTimeout, RpcTransport, UniformLatency


class Echo:
    def __init__(self):
        self.calls = 0
        self.casts = []

    def ping(self):
        self.calls += 1
        return "pong"

    def add(self, a, b=0):
        return a + b

    def note(self, value):
        self.casts.append(value)


class OutcomeSink:
    active = True

    def __init__(self):
        self.outcomes = []

    def on_rpc(self, source, target, method, kind, start, end, outcome):
        self.outcomes.append(outcome)


class AlwaysDrop(random.Random):
    def random(self):
        return 0.0


def _transport(latency=None, **kwargs) -> tuple[Simulator, AsyncRpcTransport]:
    sim = Simulator()
    t = AsyncRpcTransport(
        sim,
        latency=latency or ConstantLatency(1.0),
        rng=random.Random(0),
        **kwargs,
    )
    t.register(1, Echo())
    t.register(2, Echo())
    return sim, t


class TestAsyncCallPlane:
    def test_reply_arrives_as_event(self):
        sim, t = _transport()
        got = []
        t.call(1, "ping", on_reply=got.append)
        assert got == []  # nothing delivered before the clock moves
        sim.run()
        assert got == ["pong"]
        assert sim.now == 2.0  # two constant one-way legs

    def test_arguments_and_kwargs_forwarded(self):
        sim, t = _transport()
        got = []
        t.call(1, "add", 2, b=3, on_reply=got.append)
        sim.run()
        assert got == [5]

    def test_replies_reorder_across_calls(self):
        # Draw order is send order, but delivery order follows the draws:
        # a slow first call's reply lands after a fast second call's.
        sim = Simulator()
        t = AsyncRpcTransport(sim, latency=UniformLatency(0.5, 1.5), rng=random.Random(3))
        t.register(1, Echo())
        order = []
        t.call(1, "add", 1, on_reply=lambda r: order.append(("first", sim.now)))
        t.call(1, "add", 2, on_reply=lambda r: order.append(("second", sim.now)))
        sim.run()
        assert {name for name, _ in order} == {"first", "second"}
        # seed 3 makes the draws unequal; whichever landed first did so
        # strictly earlier, proving per-leg independence
        assert order[0][1] < order[1][1]

    def test_accounting_parity_with_sync_success(self):
        sim, t = _transport()
        sync = RpcTransport(latency=ConstantLatency(1.0), rng=random.Random(0))
        sync.register(1, Echo())
        sync.rpc(1, "ping")
        t.call(1, "ping")
        sim.run()
        assert t.messages_sent == sync.messages_sent == 2
        assert t.elapsed == sync.elapsed == 2.0
        assert t.metrics.counters()["rpc.calls"] == 1

    def test_dead_target_times_out_with_sync_charges(self):
        sim, t = _transport(timeout=8.0)
        timeouts = []
        t.call(99, "ping", on_timeout=timeouts.append)
        sim.run()
        assert len(timeouts) == 1
        assert isinstance(timeouts[0], RpcTimeout)
        assert sim.now == 8.0  # the timeout is a real event at now+timeout
        # sync parity: one lost request message, one timeout tick, the
        # full timeout interval charged to elapsed
        assert t.messages_sent == 1
        assert t.elapsed == 8.0
        assert t.metrics.counters()["rpc.timeouts"] == 1

    def test_target_dying_mid_flight_eats_the_request(self):
        sim, t = _transport(timeout=8.0)
        timeouts = []
        t.call(1, "ping", on_timeout=timeouts.append)
        sim.schedule(0.5, lambda: t.deregister(1))  # dies while in flight
        sim.run()
        assert len(timeouts) == 1
        assert t.messages_sent == 1  # the reply was never sent

    def test_late_reply_dropped_and_counted(self):
        # Timeout shorter than the round trip: the timeout event wins,
        # the reply arrives to no one and only bumps rpc.late_replies.
        sim, t = _transport(latency=ConstantLatency(3.0), timeout=4.0)
        sink = t.install_tracer(OutcomeSink())
        replies, timeouts = [], []
        t.call(1, "ping", on_reply=replies.append, on_timeout=timeouts.append)
        sim.run()
        assert replies == []
        assert len(timeouts) == 1
        assert sink.outcomes == ["timeout"]  # merely late: no other cause
        # both legs were charged (the reply was already on the wire when
        # the timeout fired), plus the timeout interval
        assert t.messages_sent == 2
        assert t.metrics.counters()["rpc.late_replies"] == 1

    @pytest.mark.parametrize(
        "cause", ["dead or unknown", "lost", "partitioned", "reply-partitioned"]
    )
    def test_an_unanswered_call_names_its_cause_as_the_sync_plane_does(self, cause):
        from repro.faults.state import FaultState

        outcomes = []
        for asynchronous in (False, True):
            sim = Simulator()
            kwargs = dict(latency=ConstantLatency(1.0), rng=random.Random(0))
            if cause == "lost":
                kwargs.update(loss_rate=0.5, loss_rng=AlwaysDrop())
            t = AsyncRpcTransport(sim, **kwargs) if asynchronous else RpcTransport(**kwargs)
            t.register(1, Echo())
            t.register(2, Echo())
            faults = t.install_faults(FaultState())
            if cause == "partitioned":
                faults.partition([[1], [2]], mode="full")
            elif cause == "reply-partitioned":
                faults.partition([[1], [2]], mode="oneway")  # 1 -> 2 crosses
            sink = t.install_tracer(OutcomeSink())
            target = 99 if cause == "dead or unknown" else 2
            if asynchronous:
                t.call_from(1, target, "ping")
                sim.run()
            else:
                with pytest.raises(RpcTimeout):
                    t.endpoint(1).rpc(target, "ping")
            # The last span is the unanswered exchange (the sync plane
            # reports a reply-partitioned call's delivered request first).
            outcomes.append(sink.outcomes[-1])
        assert outcomes == [cause, cause]

    @pytest.mark.xfail(
        strict=True,
        reason="a reply-partitioned call costs 2 messages and 10.0 on the sync plane, "
        "1 message and 8.0 on the async one; ROADMAP 'One delivery rule' settles one charge",
    )
    def test_a_reply_partitioned_call_charges_alike_on_both_planes(self):
        from repro.faults.state import FaultState

        charges = []
        for asynchronous in (False, True):
            sim = Simulator()
            kwargs = dict(latency=ConstantLatency(1.0), rng=random.Random(0))
            t = AsyncRpcTransport(sim, **kwargs) if asynchronous else RpcTransport(**kwargs)
            t.register(1, Echo())
            t.register(2, Echo())
            t.install_faults(FaultState()).partition([[1], [2]], mode="oneway")
            if asynchronous:
                t.call_from(1, 2, "ping")
                sim.run()
            else:
                with pytest.raises(RpcTimeout):
                    t.endpoint(1).rpc(2, "ping")
            charges.append((t.messages_sent, t.elapsed))
        assert charges[0] == charges[1]

    def test_cancel_before_delivery_suppresses_the_reply(self):
        sim, t = _transport()
        replies, timeouts = [], []
        call = t.call(1, "ping", on_reply=replies.append, on_timeout=timeouts.append)
        call.cancel()
        sim.run()
        assert replies == [] and timeouts == []
        assert t.metrics.counters()["rpc.cancelled"] == 1
        # the target never sends a reply nobody will read
        assert t.messages_sent == 1
        assert t.metrics.counters()["rpc.late_replies"] == 0

    def test_cancel_with_reply_in_flight_drops_it_late(self):
        sim, t = _transport()
        replies = []
        call = t.call(1, "ping", on_reply=replies.append)
        # request lands at 1.0 (reply goes on the wire), cancel at 1.5,
        # the reply arrives at 2.0 to no one
        sim.schedule(1.5, call.cancel)
        sim.run()
        assert replies == []
        assert t.messages_sent == 2
        assert t.metrics.counters()["rpc.cancelled"] == 1
        assert t.metrics.counters()["rpc.late_replies"] == 1

    def test_per_call_timeout_override(self):
        sim, t = _transport(latency=ConstantLatency(5.0), timeout=100.0)
        timeouts = []
        t.call(1, "ping", on_timeout=timeouts.append, timeout=2.0)
        sim.run(until=3.0)
        assert len(timeouts) == 1

    def test_rtt_log_captures_real_round_trips(self):
        sim, t = _transport(latency=UniformLatency(0.5, 1.5))
        t.rtt_log = []
        for _ in range(10):
            t.call(1, "ping")
        sim.run()
        assert len(t.rtt_log) == 10
        assert all(1.0 <= rtt <= 3.0 for rtt in t.rtt_log)

    def test_tracer_sees_actual_delivery_instants(self):
        sim, t = _transport(latency=ConstantLatency(1.5))

        class Sink:
            active = True

            def __init__(self):
                self.events = []

            def on_rpc(self, source, target, method, kind, start, end, outcome):
                self.events.append((source, target, method, kind, start, end, outcome))

        sink = Sink()
        t.install_tracer(sink)
        sim.run_for(10.0)  # move the clock off zero first
        t.call_from(2, 1, "ping")
        sim.run()
        assert sink.events == [(2, 1, "ping", "rpc", 10.0, 13.0, "ok")]


class TestCastPlane:
    def test_cast_delivers_one_way(self):
        sim, t = _transport()
        t.cast_from(2, 1, "note", "hello")
        assert t._nodes[1].casts == []
        sim.run()
        assert t._nodes[1].casts == ["hello"]
        assert t.messages_sent == 1
        assert sim.now == 1.0  # a single one-way leg

    def test_cast_to_dead_target_is_silently_eaten(self):
        sim, t = _transport()
        t.cast(99, "note", "void")
        sim.run()
        assert t.messages_sent == 1  # charged; nobody to deliver to


class TestCoroutineDriver:
    def test_spawn_runs_to_completion(self):
        sim, t = _transport()

        def proto():
            pong = yield Call(1, "ping")
            total = yield Call(2, "add", 3, 4)
            return (pong, total)

        future = t.spawn(proto())
        assert not future.done
        result = drive(sim, future)
        assert result == ("pong", 7)

    def test_timeout_thrown_into_coroutine(self):
        sim, t = _transport(timeout=4.0)

        def proto():
            try:
                yield Call(99, "ping")
            except RpcTimeout:
                return "survived"
            return "unreachable"

        assert drive(sim, t.spawn(proto())) == "survived"

    def test_coroutine_error_recorded_never_raised_into_the_run(self):
        sim, t = _transport()

        def proto():
            yield Call(1, "ping")
            raise ValueError("protocol bug")

        errors = []
        future = t.spawn(proto(), on_error=errors.append)
        sim.run()  # must not raise out of the event loop
        assert future.done
        assert isinstance(future.error, ValueError)
        assert len(errors) == 1
        with pytest.raises(ValueError):
            future.value()

    def test_yielding_non_call_fails_the_future(self):
        sim, t = _transport()

        def proto():
            yield "not a call"

        future = t.spawn(proto())
        assert future.done
        assert isinstance(future.error, TypeError)

    def test_drive_raises_when_sim_drains_pending(self):
        sim, t = _transport()
        with pytest.raises(RuntimeError):
            drive(sim, Future())


class TestFutureCell:
    def test_resolves_once(self):
        f = Future()
        f.resolve(1)
        f.resolve(2)
        assert f.value() == 1

    def test_done_callback_fires_on_settle_and_immediately_after(self):
        f = Future()
        seen = []
        f.add_done_callback(lambda fut: seen.append(fut.result))
        f.resolve("x")
        f.add_done_callback(lambda fut: seen.append(fut.result))
        assert seen == ["x", "x"]
