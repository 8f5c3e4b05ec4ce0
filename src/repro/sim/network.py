"""Simulated RPC transport with latency models and failure injection.

Protocol code issues synchronous RPCs through :class:`RpcTransport`; the
transport charges each call's messages and sampled round-trip latency to
its metrics, and raises :class:`RpcTimeout` for dead or missing targets
(after charging the timeout cost, as a real caller would pay it).

The transport deliberately executes calls synchronously while the
discrete-event :class:`~repro.sim.kernel.Simulator` drives *when*
protocol actions happen (stabilization ticks, churn, workload arrivals).
This sequential-RPC simplification keeps protocol code linear and
testable while preserving exactly the quantities the paper's Theorem 7
accounts for: message counts and additive per-operation latency.

A protocol written once as a generator coroutine that yields requests
(:func:`Call`) runs on this plane through :func:`run_inline`, and on
the asynchronous plane through
:meth:`~repro.sim.async_net.AsyncRpcTransport.spawn_from`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Protocol

from .metrics import MetricsRegistry
from .rng import derive_seed

__all__ = [
    "Call",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "NullAdversary",
    "NullFaults",
    "NullTraceSink",
    "RpcError",
    "RpcTimeout",
    "RpcTransport",
    "TransportEndpoint",
    "run_inline",
]


class LatencyModel(Protocol):
    """Samples one-way network delays (abstract time units).

    Models may additionally declare a class attribute
    ``deterministic = True`` to promise that :meth:`sample` always
    returns the same value *and never consumes the RNG*.  Offline cost
    replays (the Chord lockstep lookup engine) are only charge-identical
    to live execution under a deterministic model, so they check this
    flag before engaging.
    """

    def sample(self, rng: random.Random) -> float:
        ...


@dataclass(frozen=True)
class ConstantLatency:
    """Every hop takes exactly ``delay`` units (the default: 1)."""

    #: ``sample`` is a constant and ignores the RNG (see LatencyModel).
    deterministic = True

    delay: float = 1.0

    def sample(self, rng: random.Random) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformLatency:
    """One-way delay uniform on ``[low, high]``."""

    #: ``sample`` consumes the RNG: offline replay cannot be
    #: charge-identical, so lockstep engines must refuse this model.
    deterministic = False

    low: float
    high: float

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class ExponentialLatency:
    """One-way delay exponential with the given mean (heavy-ish tail)."""

    #: ``sample`` consumes the RNG (see UniformLatency.deterministic).
    deterministic = False

    mean: float = 1.0

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


class RpcError(Exception):
    """Base class for transport-level failures."""


class RpcTimeout(RpcError):
    """The target did not answer (dead, departed, or dropped packet)."""


def Call(target_id: int, method: str, *args: Any) -> tuple:
    """One request a protocol coroutine yields to its driver.

    ``yield Call(target, "method", *args)`` suspends the coroutine until
    the reply comes back (the value of the ``yield``) or the call times
    out (:class:`RpcTimeout` is raised at the ``yield``).  A request is
    the plain tuple ``(target, method, *args)``, so a hot coroutine may
    yield the tuple itself.
    """
    return (target_id, method, *args)


def run_inline(endpoint: Any, coroutine) -> Any:
    """Drive a request-yielding coroutine on the synchronous plane.

    Each yielded request becomes one blocking ``endpoint.rpc``; the
    reply is sent back in, and an :class:`RpcTimeout` is thrown in at
    the ``yield``.  Returns the coroutine's return value; anything else
    it raises propagates.  The synchronous counterpart of
    :meth:`~repro.sim.async_net.AsyncRpcTransport.spawn_from`.
    """
    rpc = endpoint.rpc
    send = coroutine.send
    try:
        request = send(None)
        while True:
            try:
                reply = rpc(*request)
            except RpcTimeout as exc:
                request = coroutine.throw(exc)
            else:
                request = send(reply)
    except StopIteration as stop:
        return stop.value


class NullFaults:
    """The default fault surface: no structured misbehaviour.

    The transport consults its :attr:`RpcTransport.faults` object on
    every delivery; this null object answers "nothing is wrong" with no
    per-call overhead beyond the attribute reads.  The real implementor
    of the protocol -- partitions, grey failures, loss bursts -- is
    :class:`repro.faults.state.FaultState`, installed via
    :meth:`RpcTransport.install_faults`.  (The sim layer deliberately
    does not import :mod:`repro.faults`: the dependency points the
    other way.)
    """

    active = False

    def blocked(self, source: int | None, target: int | None) -> bool:
        return False

    def extra_drop(self, source: int | None, target: int | None) -> float:
        return 0.0

    def latency_factor(self, source: int | None, target: int | None) -> float:
        return 1.0


class NullAdversary:
    """The default Byzantine surface: every peer answers honestly.

    The transport consults :attr:`RpcTransport.adversary` after each
    handler runs; this null object answers "no one lies" at the cost of
    one attribute read per delivery.  The real implementor -- colluding
    deflection, census misreport, eclipse poisoning -- is
    :class:`repro.adversary.state.AdversaryState`, installed via
    :meth:`RpcTransport.install_adversary`.  Same inversion as
    :class:`NullFaults` and :class:`NullTraceSink`, for the same
    reason: the sim layer does not import the layers above it.
    """

    active = False

    def rewrite(self, responder_id: int, method: str, args: tuple, result):
        return result


class NullTraceSink:
    """The default trace sink: nothing listens, nothing is recorded.

    The transport reports each delivery to its :attr:`RpcTransport.tracer`
    only when the sink says it is ``active``; this null object keeps the
    disabled cost to one attribute read per delivery.  The real sink is
    :class:`repro.obs.tracer.Tracer`, installed via
    :meth:`RpcTransport.install_tracer` -- the same inversion as
    :class:`NullFaults`/:meth:`RpcTransport.install_faults`, and for the
    same reason: the sim layer does not import the layers above it.
    """

    active = False

    def on_rpc(self, source, target, method, kind, start, end, outcome) -> None:
        return None

    def on_lookup(self, backend, hops, messages, latency, ok) -> None:
        return None


class TransportEndpoint:
    """A node-bound view of the transport: calls carry the node as source.

    Overlay nodes hold one of these instead of the raw transport so
    partitions and grey failures can attribute every delivery's
    *source*.  The transport's own ``rpc``/``oneway`` stay source-less
    -- they model an external client outside the overlay, which no
    partition group contains.  The endpoint mirrors exactly the
    transport surface node code uses (``rpc``, ``oneway``, ``metrics``,
    ``is_registered``, ``timeout``, ``charge_delay``).
    """

    __slots__ = ("_transport", "node_id")

    def __init__(self, transport: "RpcTransport", node_id: int):
        self._transport = transport
        self.node_id = node_id

    def rpc(self, target_id: int, method: str, *args: Any, **kwargs: Any) -> Any:
        return self._transport.rpc_from(
            self.node_id, target_id, method, *args, **kwargs
        )

    def oneway(self, target_id: int, method: str, *args: Any, **kwargs: Any) -> Any:
        return self._transport.oneway_from(
            self.node_id, target_id, method, *args, **kwargs
        )

    def is_registered(self, node_id: int) -> bool:
        return self._transport.is_registered(node_id)

    def charge_delay(self, delay: float) -> None:
        self._transport.charge_delay(delay)

    @property
    def metrics(self) -> MetricsRegistry:
        return self._transport.metrics

    @property
    def timeout(self) -> float:
        return self._transport.timeout


class RpcTransport:
    """Synchronous simulated RPC fabric between registered nodes.

    ``rpc(target_id, method, *args)`` invokes ``method`` on the node
    object registered under ``target_id``, charging two messages
    (request + reply) and a sampled round trip to the metrics.  Dead
    targets cost ``timeout`` latency and raise :class:`RpcTimeout`.
    ``loss_rate`` drops individual calls at random with the same timeout
    cost, modelling an unreliable network.

    Drop decisions draw from a **dedicated** loss stream (``loss_rng``),
    never from the latency/workload ``rng``: enabling loss must not
    shift any other component's draws, so seeded runs stay comparable
    across fault configurations.  The default loss stream is fixed-seed
    (reproducible run-to-run, like metric reservoirs); pass ``loss_rng``
    to tie it to an experiment's seed registry.

    Structured misbehaviour -- partitions, grey failures, loss bursts --
    is consulted per delivery through :attr:`faults`
    (:class:`NullFaults` until :meth:`install_faults` installs a real
    :class:`repro.faults.state.FaultState`).  Asymmetric partitions need
    a *source* for each delivery, which node-bound
    :class:`TransportEndpoint` views supply; the bare ``rpc``/``oneway``
    methods carry no source and model an external client.
    """

    #: Whether calls are event-scheduled rather than instantaneous.
    #: The Chord lockstep engine (and anything else replaying charges
    #: off-transport) checks this and refuses asynchronous transports,
    #: the same way it refuses active faults: replay could never be
    #: charge-identical to message-level delivery.
    asynchronous = False

    def __init__(
        self,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        timeout: float = 8.0,
        loss_rate: float = 0.0,
        metrics: MetricsRegistry | None = None,
        loss_rng: random.Random | None = None,
        faults: Any | None = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self._latency = latency if latency is not None else ConstantLatency()
        self._rng = rng if rng is not None else random.Random()
        self._timeout = timeout
        self._loss_rate = loss_rate
        self._loss_rng = (
            loss_rng
            if loss_rng is not None
            else random.Random(derive_seed(0, "transport.loss"))
        )
        #: The structured-fault surface consulted on every delivery.
        self.faults = faults if faults is not None else NullFaults()
        #: The trace sink notified of deliveries while it is active
        #: (:class:`NullTraceSink` until :meth:`install_tracer`).
        self.tracer = NullTraceSink()
        #: The Byzantine surface asked to rewrite each reply while it is
        #: active (:class:`NullAdversary` until :meth:`install_adversary`).
        self.adversary = NullAdversary()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Bound ``Counter.increment`` handles for the per-delivery
        #: counters.  Caching them skips two registry lookups and an
        #: attribute chain per call -- which more than pays for the
        #: per-method split and the tracer guard below, so the
        #: instrumented hot path runs *faster* than its
        #: pre-instrumentation twin (benchmarks/bench_obs.py measures
        #: the ratio).  ``counter()`` is get-or-create, so external
        #: readers and writers still see the same Counter objects.
        self._count_call = self.metrics.counter("rpc.calls").increment
        self._count_msgs = self.metrics.counter("messages").increment
        self._count_timeout = self.metrics.counter("rpc.timeouts").increment
        #: Per-method message counts (the ``messages`` counter, split by
        #: RPC method).  Deliberately an *exact* dict updated with a
        #: try/except-KeyError subscript: CPython's adaptive interpreter
        #: specializes subscripts only for exact dicts (a Counter
        #: subclass deoptimizes every hit), and the except arm runs once
        #: per method name.  Surfaced as ``messages.<method>`` counters
        #: by :meth:`method_message_counters`.
        self._method_messages: dict[str, int] = {}
        self._nodes: dict[int, Any] = {}
        #: Where a target missing from the registered nodes is looked up:
        #: None, or a mapping whose ``get(node_id)`` returns the node
        #: (registering it) or None.  An overlay that creates its nodes
        #: on first use (``ChordNetwork``) sets it to its membership; the
        #: delivery paths ask it only when the exact-dict ``get`` misses.
        self.directory: Any | None = None
        #: Total simulated latency accrued by RPCs (additive, per Theorem 7).
        self.elapsed: float = 0.0

    def install_faults(self, faults: Any) -> Any:
        """Install (and return) a fault surface, replacing the current one."""
        self.faults = faults
        return faults

    def install_tracer(self, tracer: Any) -> Any:
        """Install (and return) a trace sink, replacing the current one.

        The sink is consulted per delivery only while its ``active``
        attribute is true (:class:`repro.obs.tracer.Tracer` raises it
        exactly while a sampled batch is dispatching), so an installed
        but idle tracer costs the same one attribute read as the null
        sink.
        """
        self.tracer = tracer
        return tracer

    def install_adversary(self, adversary: Any) -> Any:
        """Install (and return) a Byzantine surface, replacing the current one.

        While ``adversary.active`` is true, every delivered reply passes
        through ``adversary.rewrite(responder_id, method, args, result)``
        *after* the handler has run and the delivery has been charged:
        Byzantine peers participate at full protocol cost, they just
        answer falsely.  The rewrite sits on the reply leg only -- a lie
        never saves a message, and a dead liar still times out.
        """
        self.adversary = adversary
        return adversary

    def endpoint(self, node_id: int) -> TransportEndpoint:
        """A node-bound view whose calls carry ``node_id`` as the source."""
        return TransportEndpoint(self, node_id)

    def charge_delay(self, delay: float) -> None:
        """Charge waiting time (retry backoff) into the latency account."""
        if delay < 0:
            raise ValueError("cannot charge negative delay")
        self.elapsed += delay

    # -- membership -----------------------------------------------------

    def register(self, node_id: int, node: Any) -> None:
        if node_id in self._nodes:
            raise ValueError(f"node id {node_id} already registered")
        self._nodes[node_id] = node

    def deregister(self, node_id: int) -> None:
        self._nodes.pop(node_id, None)

    def is_registered(self, node_id: int) -> bool:
        directory = self.directory
        return node_id in self._nodes or (directory is not None and node_id in directory)

    def node(self, node_id: int) -> Any:
        """Direct (cost-free) access to a node object, for tests/oracles."""
        node = self._nodes.get(node_id)
        if node is None and self.directory is not None:
            node = self.directory.get(node_id)
        if node is None:
            raise KeyError(node_id)
        return node

    # -- cost-model introspection (read-only) ---------------------------
    #
    # Exposed so offline replays (the Chord lockstep lookup engine) can
    # decide whether simulating calls off-transport is charge-identical
    # to issuing them, and charge the exact per-call amounts if so.

    @property
    def latency_model(self) -> LatencyModel:
        return self._latency

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @property
    def timeout(self) -> float:
        return self._timeout

    @property
    def node_ids(self) -> list[int]:
        directory = self.directory
        return list(self._nodes if directory is None else directory)

    # -- the RPC fabric ---------------------------------------------------

    def _admit(
        self, source_id: int | None, target_id: int, method: str, kind: str
    ) -> tuple[Any, float]:
        """The shared dead/partition/loss gate for one delivery.

        Returns ``(target, latency_factor)`` when the request leg
        delivers; otherwise charges the failure (one lost-request
        message, the timeout latency, a timeout tick) and raises
        :class:`RpcTimeout`.  The drop die is rolled on the dedicated
        loss stream, and only when some loss source is actually in play.
        """
        target = self._nodes.get(target_id)
        if target is None and self.directory is not None:
            target = self.directory.get(target_id)
        faults = self.faults
        if target is not None and not faults.blocked(source_id, target_id):
            p = self._loss_rate
            if faults.active:
                extra = faults.extra_drop(source_id, target_id)
                if extra > 0.0:
                    p = 1.0 - (1.0 - p) * (1.0 - extra)
            if not (p > 0.0 and self._loss_rng.random() < p):
                factor = (
                    faults.latency_factor(source_id, target_id)
                    if faults.active
                    else 1.0
                )
                return target, factor
            reason = "lost"
        elif target is None:
            reason = "dead or unknown"
        else:
            reason = "partitioned"
        self._count_timeout()
        self._count_msgs()  # the lost request
        mm = self._method_messages
        try:
            mm[method] += 1
        except KeyError:
            mm[method] = 1
        tracer = self.tracer
        if tracer.active:
            start = self.elapsed
            self.elapsed = start + self._timeout
            tracer.on_rpc(
                source_id, target_id, method, kind, start, self.elapsed, reason
            )
        else:
            self.elapsed += self._timeout
        raise RpcTimeout(f"{kind} {method} to node {target_id}: target {reason}")

    def rpc(self, target_id: int, method: str, *args: Any, **kwargs: Any) -> Any:
        """Call ``method`` on the target node, charging messages and latency.

        Source-less: the caller is an external client outside the
        overlay (partitions never apply).  Overlay nodes call through
        their :class:`TransportEndpoint` (:meth:`rpc_from`) instead.
        """
        return self.rpc_from(None, target_id, method, *args, **kwargs)

    def rpc_from(
        self,
        source_id: int | None,
        target_id: int,
        method: str,
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        """One request/reply exchange attributed to ``source_id``."""
        self._count_call()
        target, factor = self._admit(source_id, target_id, method, "rpc")
        self._count_msgs(2)  # request + reply
        mm = self._method_messages
        try:
            mm[method] += 2
        except KeyError:
            mm[method] = 2
        delta = factor * (
            self._latency.sample(self._rng) + self._latency.sample(self._rng)
        )
        tracer = self.tracer
        if tracer.active:
            start = self.elapsed
            self.elapsed = start + delta
            tracer.on_rpc(
                source_id, target_id, method, "rpc", start, self.elapsed, "ok"
            )
        else:
            self.elapsed += delta
        result = getattr(target, method)(*args, **kwargs)
        adversary = self.adversary
        if adversary.active:
            # Byzantine responder: the handler ran and the exchange was
            # charged in full, but the reply on the wire may be a lie.
            result = adversary.rewrite(target_id, method, args, result)
        if self.faults.blocked(target_id, source_id):
            # One-way partition, reply leg severed: the request crossed
            # and the handler ran (side effects stand), but the answer
            # never returns -- the caller eats a timeout.  This is the
            # asymmetry that distinguishes a partial partition from a
            # crash, and exactly why one-way cuts are nasty.
            self._count_timeout()
            tracer = self.tracer
            if tracer.active:
                start = self.elapsed
                self.elapsed = start + self._timeout
                tracer.on_rpc(
                    source_id, target_id, method, "rpc",
                    start, self.elapsed, "reply-partitioned",
                )
            else:
                self.elapsed += self._timeout
            raise RpcTimeout(
                f"rpc {method} to node {target_id}: reply partitioned"
            )
        return result

    def oneway(self, target_id: int, method: str, *args: Any, **kwargs: Any) -> Any:
        """Forward a message without a reply leg (recursive routing).

        Charges one message and a single one-way latency sample.  The
        handler runs synchronously and its return value propagates up the
        Python call chain, modelling the final direct reply being sent
        once at the end of a forwarding chain (the caller charges that
        reply separately).  Lost/dead targets cost the timeout, like
        :meth:`rpc`.  Source-less, like :meth:`rpc`; overlay nodes use
        :meth:`oneway_from` via their endpoint.
        """
        return self.oneway_from(None, target_id, method, *args, **kwargs)

    def oneway_from(
        self,
        source_id: int | None,
        target_id: int,
        method: str,
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        """One fire-and-forget message attributed to ``source_id``."""
        self._count_call()
        target, factor = self._admit(source_id, target_id, method, "oneway")
        self._count_msgs(1)
        mm = self._method_messages
        try:
            mm[method] += 1
        except KeyError:
            mm[method] = 1
        delta = factor * self._latency.sample(self._rng)
        tracer = self.tracer
        if tracer.active:
            start = self.elapsed
            self.elapsed = start + delta
            tracer.on_rpc(
                source_id, target_id, method, "oneway", start, self.elapsed, "ok"
            )
        else:
            self.elapsed += delta
        result = getattr(target, method)(*args, **kwargs)
        adversary = self.adversary
        if adversary.active:
            result = adversary.rewrite(target_id, method, args, result)
        return result

    # -- per-method message accounting ----------------------------------

    def count_method_messages(self, method: str, count: int) -> None:
        """Bulk-attribute messages to a method (offline lockstep commits).

        The Chord lockstep engine charges the aggregate ``messages``
        counter directly (it never issues transport calls); this keeps
        the per-method split consistent with the aggregate so hop-level
        traces and counters cross-check under any execution path.
        """
        mm = self._method_messages
        mm[method] = mm.get(method, 0) + count

    def messages_by_method(self) -> dict[str, int]:
        """Message counts split by RPC method (sums to ``messages_sent``)."""
        return dict(self._method_messages)

    def method_message_counters(self) -> MetricsRegistry:
        """Materialize the per-method split as ``messages.<method>``
        counters in :attr:`metrics` (for exposition/scrapes), returning
        the registry.  The hot path deliberately updates a bare dict;
        this sync-on-read keeps per-delivery overhead at one dict update.
        """
        for method, count in self._method_messages.items():
            self.metrics.counter(f"messages.{method}").value = count
        return self.metrics

    @property
    def messages_sent(self) -> int:
        return self.metrics.counter("messages").value
