"""Asynchronous message-level transport on the discrete-event kernel.

:class:`AsyncRpcTransport` extends :class:`~repro.sim.network.RpcTransport`
with an *in-flight message plane*: each request and reply is a separate
scheduled event with its own one-way latency draw, so replies can arrive
out of order relative to later requests, a target can die while a
message is on the wire, and a timeout is a real event at ``now +
timeout`` on the :class:`~repro.sim.kernel.Simulator` clock -- a reply
landing first cancels it (leaving a heap tombstone the
:class:`~repro.sim.events.EventQueue` compacts lazily), it is never an
instantaneous exception.

The inherited synchronous ``rpc``/``oneway`` plane stays fully
functional and is what lock-step maintenance rounds and the seeded
control paths keep using; the async plane is additive.  Callers of the
async plane are *continuations*: :meth:`call_from` takes ``on_reply``/
``on_timeout`` callbacks, and :meth:`spawn_from` drives a generator
coroutine that ``yield``\\ s requests (:func:`~repro.sim.network.Call`)
or :class:`Future`\\ s -- the reply or result is sent back into the
generator, a timeout or failure is thrown in (a timeout as
:class:`~repro.sim.network.RpcTimeout`), so protocol logic reads
linearly while living on the event clock.  The same coroutine runs on
the synchronous plane through :func:`~repro.sim.network.run_inline`.

Determinism: both one-way latency samples and the loss die are drawn at
*send* time (in call order, from the same streams the sync plane uses),
so a fixed seed fixes the entire delivery schedule regardless of how
deliveries interleave.  Liveness and partition checks happen at
*delivery* time: a node that crashes while the request is in flight
eats the message, exactly the race the sync plane cannot express.

Accounting: a completed async call charges the same two messages and
two one-way samples to the same counters as a sync ``rpc``, and reports
the same ``on_rpc`` tracer event -- but with ``start``/``end`` being
actual sim-clock send/delivery instants, so span timestamps downstream
are real delivery times.  A call that times out charges one
``rpc.timeouts`` tick and the full timeout interval, plus one message
(the request), or two when a merely late reply was already on the wire;
its span's outcome names the cause as the sync plane does (``"lost"``,
``"dead or unknown"``, ``"partitioned"``, ``"reply-partitioned"``;
``"timeout"`` for a reply that was merely late).  The charges equal the
sync plane's ``_admit`` when the request never reaches a live handler
(lost, partitioned, dead or unknown target).  They differ for a
reply-partitioned call, the known exception: the sync ``rpc_from``
charges the delivered request's round trip too (2 messages, the round
trip plus the timeout, two spans), this plane 1 message and the timeout
(one span).  A reply later than the timeout exists only here; the sync
plane charges any round trip in full as a success.  The ROADMAP item
"One delivery rule" is to give both planes one charge per outcome.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Generator

from .kernel import Simulator
from .metrics import MetricsRegistry
from .network import Call, LatencyModel, RpcTimeout, RpcTransport, TransportEndpoint

__all__ = ["AsyncCall", "AsyncEndpoint", "AsyncRpcTransport", "Call", "Future", "drive"]

# AsyncCall lifecycle states.
_PENDING = 0
_REPLIED = 1
_TIMED_OUT = 2
_CANCELLED = 3


class Future:
    """Completion cell for a spawned coroutine (resolved exactly once)."""

    __slots__ = ("done", "result", "error", "_callbacks")

    def __init__(self) -> None:
        self.done = False
        self.result: Any = None
        self.error: BaseException | None = None
        self._callbacks: list[Callable[["Future"], None]] = []

    def resolve(self, result: Any) -> None:
        if not self.done:
            self.done = True
            self.result = result
            self._run_callbacks()

    def fail(self, error: BaseException) -> None:
        if not self.done:
            self.done = True
            self.error = error
            self._run_callbacks()

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Invoke ``fn(self)`` on settlement (immediately if already done)."""
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def value(self) -> Any:
        """The result, re-raising a failure (call only when ``done``)."""
        if self.error is not None:
            raise self.error
        return self.result


def drive(sim: Simulator, future: Future) -> Any:
    """Run ``sim`` until ``future`` resolves; return (or re-raise) it.

    The blocking facade for top-level callers (probe sweeps, benches,
    tests): events already scheduled -- other lookups, maintenance
    ticks, fault injections -- interleave with the awaited work, which
    is the point.  Must not be called from inside an event handler (the
    kernel is single-threaded and non-reentrant); continuation-style
    code running *on* the clock composes with ``Call``/callbacks
    instead.
    """
    while not future.done:
        if not sim.step():
            raise RuntimeError(
                "simulation drained with the awaited call still pending"
            )
    return future.value()


class AsyncCall:
    """Per-call pending bookkeeping: one in-flight request/reply pair.

    Holds the timeout event handle so the first of {reply delivery,
    timeout} to fire wins and cancels the other path;
    :meth:`cancel` abandons the call (straggler probes a lookup no
    longer needs) -- a late reply is then dropped and counted.
    ``cause`` is why the reply cannot come, in the sync plane's words
    (``"lost"``, ``"dead or unknown"``, ``"partitioned"``,
    ``"reply-partitioned"``), recorded where the plane learns it;
    ``"timeout"`` while the reply is merely late.
    """

    __slots__ = (
        "transport",
        "source_id",
        "target_id",
        "method",
        "sent_at",
        "on_reply",
        "on_timeout",
        "state",
        "cause",
        "_timeout_event",
    )

    def __init__(self, transport, source_id, target_id, method, sent_at, on_reply, on_timeout):
        self.transport = transport
        self.source_id = source_id
        self.target_id = target_id
        self.method = method
        self.sent_at = sent_at
        self.on_reply = on_reply
        self.on_timeout = on_timeout
        self.state = _PENDING
        self.cause = "timeout"
        self._timeout_event = None

    @property
    def pending(self) -> bool:
        return self.state == _PENDING

    def cancel(self) -> None:
        """Abandon the call: the timeout event dies, a reply is ignored."""
        if self.state != _PENDING:
            return
        self.state = _CANCELLED
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        self.transport._count_cancelled()


class AsyncEndpoint(TransportEndpoint):
    """Node-bound async view: sync plane inherited, async plane added."""

    __slots__ = ()

    def call(
        self,
        target_id: int,
        method: str,
        *args: Any,
        on_reply: Callable[[Any], None] | None = None,
        on_timeout: Callable[[RpcTimeout], None] | None = None,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> AsyncCall:
        return self._transport.call_from(
            self.node_id,
            target_id,
            method,
            *args,
            on_reply=on_reply,
            on_timeout=on_timeout,
            timeout=timeout,
            **kwargs,
        )

    def cast(self, target_id: int, method: str, *args: Any, **kwargs: Any) -> None:
        self._transport.cast_from(self.node_id, target_id, method, *args, **kwargs)

    def spawn(
        self,
        gen: Generator,
        on_done: Callable[[Any], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> Future:
        return self._transport.spawn_from(
            self.node_id, gen, on_done=on_done, on_error=on_error
        )

    @property
    def sim(self) -> Simulator:
        return self._transport.sim

    @property
    def now(self) -> float:
        return self._transport.sim.now


class AsyncRpcTransport(RpcTransport):
    """The message-level transport (see module docstring).

    Shares the full :class:`RpcTransport` surface -- ``endpoint``,
    ``install_faults``/``install_tracer``/``install_adversary``,
    metrics, registration, the synchronous ``rpc``/``oneway`` plane --
    and adds the event-scheduled async plane.  Requires the
    :class:`Simulator` whose clock deliveries live on.
    """

    #: Lockstep/batch engines refuse transports that advertise this
    #: (same pattern as refusing active faults): off-clock replay cannot
    #: be charge-identical to event-scheduled delivery.
    asynchronous = True

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        timeout: float = 8.0,
        loss_rate: float = 0.0,
        metrics: MetricsRegistry | None = None,
        loss_rng: random.Random | None = None,
        faults: Any | None = None,
    ):
        super().__init__(
            latency=latency,
            rng=rng,
            timeout=timeout,
            loss_rate=loss_rate,
            metrics=metrics,
            loss_rng=loss_rng,
            faults=faults,
        )
        self.sim = sim
        self._count_late = self.metrics.counter("rpc.late_replies").increment
        self._count_cancelled = self.metrics.counter("rpc.cancelled").increment
        #: When not None, every completed async call appends its
        #: sim-clock round trip here (per-hop latency capture for the
        #: async bench); ``None`` keeps the off state free.
        self.rtt_log: list[float] | None = None

    def endpoint(self, node_id: int) -> AsyncEndpoint:
        """A node-bound view carrying both the sync and async planes."""
        return AsyncEndpoint(self, node_id)

    # -- the async message plane ----------------------------------------

    def call(
        self,
        target_id: int,
        method: str,
        *args: Any,
        on_reply: Callable[[Any], None] | None = None,
        on_timeout: Callable[[RpcTimeout], None] | None = None,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> AsyncCall:
        """Source-less :meth:`call_from` (an external client)."""
        return self.call_from(
            None,
            target_id,
            method,
            *args,
            on_reply=on_reply,
            on_timeout=on_timeout,
            timeout=timeout,
            **kwargs,
        )

    def call_from(
        self,
        source_id: int | None,
        target_id: int,
        method: str,
        *args: Any,
        on_reply: Callable[[Any], None] | None = None,
        on_timeout: Callable[[RpcTimeout], None] | None = None,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> AsyncCall:
        """Send one request; the reply (or timeout) arrives as an event.

        Both one-way samples and the loss die are drawn now, at send
        time (see module docstring); the request leg delivers after the
        first sample, the reply leg after the second, and the timeout
        event is armed at ``now + timeout``.
        """
        self._count_call()
        sim = self.sim
        call = AsyncCall(self, source_id, target_id, method, sim.now, on_reply, on_timeout)
        # The request leaves the source now: charged whether or not it
        # ever lands (the sync plane charges its lost request the same).
        self._count_msgs()
        mm = self._method_messages
        try:
            mm[method] += 1
        except KeyError:
            mm[method] = 1
        faults = self.faults
        factor = faults.latency_factor(source_id, target_id) if faults.active else 1.0
        request_delay = factor * self._latency.sample(self._rng)
        reply_delay = factor * self._latency.sample(self._rng)
        # The loss die rolls per call on the dedicated loss stream, only
        # when some loss source is in play (stream parity with _admit).
        p = self._loss_rate
        if faults.active:
            extra = faults.extra_drop(source_id, target_id)
            if extra > 0.0:
                p = 1.0 - (1.0 - p) * (1.0 - extra)
        lost = p > 0.0 and self._loss_rng.random() < p
        call._timeout_event = sim.schedule(
            self._timeout if timeout is None else timeout,
            lambda: self._fire_timeout(call),
        )
        if lost:
            call.cause = "lost"
        else:
            sim.schedule(
                request_delay,
                lambda: self._deliver_request(call, args, kwargs, reply_delay),
            )
        return call

    def _deliver_request(self, call: AsyncCall, args, kwargs, reply_delay: float) -> None:
        """The request leg lands: liveness/partition judged *now*."""
        target = self._nodes.get(call.target_id)
        if target is None and self.directory is not None:
            target = self.directory.get(call.target_id)
        if target is None:
            # Died (possibly mid-flight); the timeout will fire.
            call.cause = "dead or unknown"
            return
        faults = self.faults
        if faults.active and faults.blocked(call.source_id, call.target_id):
            call.cause = "partitioned"
            return
        result = getattr(target, call.method)(*args, **kwargs)
        adversary = self.adversary
        if adversary.active:
            result = adversary.rewrite(call.target_id, call.method, args, result)
        if faults.active and faults.blocked(call.target_id, call.source_id):
            # One-way partition: the reply leg is severed.
            call.cause = "reply-partitioned"
            return
        if call.state != _PENDING:
            return  # caller already gave up; don't charge a reply nobody reads
        # The reply leaves the target now.
        self._count_msgs()
        mm = self._method_messages
        try:
            mm[call.method] += 1
        except KeyError:
            mm[call.method] = 1
        self.sim.schedule(reply_delay, lambda: self._deliver_reply(call, result))

    def _deliver_reply(self, call: AsyncCall, result: Any) -> None:
        if call.state != _PENDING:
            # The timeout fired (or the caller cancelled) first: the
            # answer arrives to no one.  The wire cost already stands.
            self._count_late()
            return
        call.state = _REPLIED
        call._timeout_event.cancel()
        now = self.sim.now
        rtt = now - call.sent_at
        self.elapsed += rtt
        if self.rtt_log is not None:
            self.rtt_log.append(rtt)
        tracer = self.tracer
        if tracer.active:
            tracer.on_rpc(
                call.source_id, call.target_id, call.method, "rpc",
                call.sent_at, now, "ok",
            )
        if call.on_reply is not None:
            call.on_reply(result)

    def _fire_timeout(self, call: AsyncCall) -> None:
        if call.state != _PENDING:
            return
        call.state = _TIMED_OUT
        self._count_timeout()
        now = self.sim.now
        self.elapsed += now - call.sent_at
        tracer = self.tracer
        if tracer.active:
            tracer.on_rpc(
                call.source_id, call.target_id, call.method, "rpc",
                call.sent_at, now, call.cause,
            )
        if call.on_timeout is not None:
            call.on_timeout(
                RpcTimeout(f"rpc {call.method} to node {call.target_id}: timed out")
            )

    def cast(self, target_id: int, method: str, *args: Any, **kwargs: Any) -> None:
        """Source-less :meth:`cast_from`."""
        self.cast_from(None, target_id, method, *args, **kwargs)

    def cast_from(
        self,
        source_id: int | None,
        target_id: int,
        method: str,
        *args: Any,
        **kwargs: Any,
    ) -> None:
        """One fire-and-forget message as a scheduled delivery.

        The async twin of the sync plane's ``oneway``: one message, one
        one-way sample.  No reply, no timeout -- the sender cannot know
        whether it landed; a dead or partitioned target just eats it.
        """
        self._count_call()
        self._count_msgs()
        mm = self._method_messages
        try:
            mm[method] += 1
        except KeyError:
            mm[method] = 1
        faults = self.faults
        factor = faults.latency_factor(source_id, target_id) if faults.active else 1.0
        delay = factor * self._latency.sample(self._rng)
        p = self._loss_rate
        if faults.active:
            extra = faults.extra_drop(source_id, target_id)
            if extra > 0.0:
                p = 1.0 - (1.0 - p) * (1.0 - extra)
        if p > 0.0 and self._loss_rng.random() < p:
            return
        sent_at = self.sim.now
        self.sim.schedule(
            delay, lambda: self._deliver_cast(source_id, target_id, method, args, kwargs, sent_at)
        )

    def _deliver_cast(self, source_id, target_id, method, args, kwargs, sent_at) -> None:
        target = self._nodes.get(target_id)
        if target is None and self.directory is not None:
            target = self.directory.get(target_id)
        if target is None:
            return
        faults = self.faults
        if faults.active and faults.blocked(source_id, target_id):
            return
        now = self.sim.now
        self.elapsed += now - sent_at
        tracer = self.tracer
        if tracer.active:
            tracer.on_rpc(source_id, target_id, method, "oneway", sent_at, now, "ok")
        getattr(target, method)(*args, **kwargs)

    # -- the coroutine driver -------------------------------------------

    def spawn(
        self,
        gen: Generator,
        on_done: Callable[[Any], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> Future:
        """Source-less :meth:`spawn_from`."""
        return self.spawn_from(None, gen, on_done=on_done, on_error=on_error)

    def spawn_from(
        self,
        source_id: int | None,
        gen: Generator,
        on_done: Callable[[Any], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> Future:
        """Drive a generator coroutine that yields requests or futures.

        Each yielded request (:func:`~repro.sim.network.Call`) is issued
        on the async plane attributed to ``source_id``; the coroutine
        resumes with the reply value, or has :class:`RpcTimeout` thrown
        in when the timeout event fires.  A yielded :class:`Future` is
        awaited: the coroutine resumes with its result, or has its error
        thrown in.
        ``StopIteration``'s value resolves the returned :class:`Future`;
        any other exception fails it (and goes to ``on_error`` when
        given).  The failure is never re-raised out of the resuming
        event -- that would kill the whole sim run -- so a caller that
        cares must read the :class:`Future` (``drive`` re-raises).
        """
        future = Future()

        def settle_ok(value: Any) -> None:
            future.resolve(value)
            if on_done is not None:
                on_done(value)

        def settle_err(error: BaseException) -> None:
            future.fail(error)
            if on_error is not None:
                on_error(error)

        def step(send_value: Any = None, throw_exc: BaseException | None = None) -> None:
            try:
                if throw_exc is not None:
                    item = gen.throw(throw_exc)
                else:
                    item = gen.send(send_value)
            except StopIteration as stop:
                settle_ok(stop.value)
                return
            except Exception as exc:  # noqa: BLE001 -- see docstring
                settle_err(exc)
                return
            if type(item) is tuple:
                self.call_from(
                    source_id,
                    *item,
                    on_reply=lambda result: step(send_value=result),
                    on_timeout=lambda exc: step(throw_exc=exc),
                )
            elif isinstance(item, Future):
                item.add_done_callback(
                    lambda done: step(done.result, done.error)
                )
            else:
                settle_err(
                    TypeError(
                        f"async coroutine must yield a Call or a Future, got {item!r}"
                    )
                )

        step()
        return future
