"""Micro-batching shard worker: coalesce, dispatch, stamp latencies.

A :class:`ShardWorker` owns one substrate's dispatch strategy behind a
FIFO queue and models a single-server station on the simulation clock:

- the rule is work-conserving: an idle shard dispatches an arriving
  request at once, so a request waits only behind a batch in service;
- while a batch is in service the worker is busy and arrivals queue;
  completion is a scheduled event ``service_time`` later, at which
  point responses are stamped (queue latency = dispatch - arrival,
  service latency = completion - dispatch) and everything that queued
  meanwhile leaves as the next batch, up to ``max_batch`` requests (the
  rest leave at the completion after).

Queue *bounds* are not enforced here -- admission control
(:mod:`repro.service.admission`) rejects before ``offer`` so
backpressure is an explicit, counted decision rather than a silent
queue property.

Churn handling
--------------

On a live (churning) substrate a dispatch can fail: the strategy raises
:class:`~repro.service.dispatch.DispatchError` when routing holes or a
stale size estimate kill the execution.  The worker then

1. marks itself *unhealthy* (the router steers new traffic to healthy
   shards while this one recovers),
2. requeues the batch at the head of the queue and backs off for the
   cooldown the shard's :class:`~repro.faults.retry.RetryPolicy`
   prescribes -- giving stabilization a chance to repair the overlay
   (the legacy ``max_retries``/``retry_backoff`` knobs map onto a
   fixed-delay policy, so existing runs are bit-identical),
3. asks the strategy to :meth:`~repro.service.dispatch.BatchDispatch.refresh`
   its parameters (re-running Estimate-n against the now-repaired
   population) and retries while the policy's attempt budget lasts,
4. and finally fails the batch *explicitly*: every request gets a
   ``FAILED`` response, counted by the metrics, never a lost request or
   a leaked exception.

The first successful dispatch re-admits the shard (healthy again, retry
budget reset).  A shard that failed a batch outright re-admits itself
after one further backoff (half-open, circuit-breaker style): the
router sheds unhealthy shards, so an idle one would otherwise never see
the traffic that could prove it recovered.  All of this is
deterministic on the simulation clock.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

from ..faults.retry import RetryPolicy
from ..obs.tracer import NULL_TRACER
from ..sim.kernel import Simulator
from .dispatch import DispatchError, ServiceTimeModel
from .metrics import ServiceMetrics
from .request import RequestStatus, SampleRequest, SampleResponse

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard: a bounded-latency micro-batching queue over a sampler."""

    def __init__(
        self,
        shard_id: int,
        sim: Simulator,
        dispatch,
        *,
        time_model: ServiceTimeModel | None = None,
        metrics: ServiceMetrics | None = None,
        sink: Callable[[SampleResponse], None] | None = None,
        max_batch: int = 32,
        max_retries: int = 2,
        retry_backoff: float = 1.0,
        retry_policy: RetryPolicy | None = None,
        retry_rng: random.Random | None = None,
        tracer=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.shard_id = shard_id
        self._sim = sim
        self._dispatch = dispatch
        self._time_model = time_model if time_model is not None else ServiceTimeModel()
        self._metrics = metrics
        self._sink = sink
        #: Span sink for the batch lifecycle; the shared no-op default
        #: keeps every tracing site a single ``enabled`` attribute read.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.max_batch = max_batch
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        #: The cooldown/attempt discipline.  The legacy knobs map onto a
        #: fixed-delay policy (``max_retries`` retries after the first
        #: failure, constant ``retry_backoff`` cooldown), so callers that
        #: pass no policy get bit-identical behaviour; a policy with
        #: exponential backoff or jitter changes only the cooldown
        #: lengths, never the state machine.  Jittered policies need
        #: ``retry_rng`` (see RetryPolicy's determinism contract).
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                attempts=max_retries + 1, base_delay=retry_backoff, factor=1.0
            )
        )
        self._retry_rng = retry_rng
        self._queue: deque[SampleRequest] = deque()
        self._in_flight = 0
        self._healthy = True
        self._cooling = False  # a retry backoff is pending; hold flushes
        self._consecutive_failures = 0
        self.batches_served = 0
        self.dispatch_failures = 0  # DispatchErrors observed (incl. retried)
        self.retries = 0  # failures that were retried rather than failed
        self.failed_requests = 0  # requests terminated with FAILED

    # -- load signals (read by routing and admission) ---------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting for dispatch (excludes the batch in service)."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Requests currently in service (0 or one batch's worth)."""
        return self._in_flight

    @property
    def load(self) -> int:
        """Queued plus in-flight requests -- the least-loaded signal."""
        return len(self._queue) + self._in_flight

    @property
    def busy(self) -> bool:
        return self._in_flight > 0

    @property
    def dispatch(self):
        """The dispatch strategy this shard serves through (read-only)."""
        return self._dispatch

    @property
    def healthy(self) -> bool:
        """False from a dispatch failure until the next success.

        The router prefers healthy shards, so a shard whose substrate is
        mid-repair sheds new traffic while it retries; the first
        successful dispatch re-admits it.
        """
        return self._healthy

    # -- the micro-batching state machine ---------------------------------

    def offer(self, request: SampleRequest) -> None:
        """Enqueue an admitted request and re-evaluate the dispatch rule."""
        self._queue.append(request)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        """Dispatch what is queued, unless in service or cooling.

        Single server: a completion or a retry calls this again.  A
        batch that fails outright leaves the shard idle, so the loop
        sends the next queued batch at once.
        """
        while self._queue and not self._in_flight and not self._cooling:
            self._flush()

    def _flush(self) -> None:
        """Dispatch up to ``max_batch`` queued requests as one batch."""
        queue = self._queue
        if len(queue) <= self.max_batch:
            batch = list(queue)
            queue.clear()
        else:
            batch = [queue.popleft() for _ in range(self.max_batch)]
        self._in_flight = len(batch)
        dispatched_at = self._sim.now
        tracer = self._tracer
        # The batch context must open *before* execute so the engine's
        # round spans and the transport's per-hop rpc/lookup spans land
        # in this dispatch's trace.
        ctx = tracer.begin_batch(batch, self.shard_id, dispatched_at) if tracer.enabled else None
        try:
            execution = self._dispatch.execute(len(batch))
        except DispatchError as exc:
            if ctx is not None:
                tracer.fail_batch(ctx, dispatched_at, str(exc))
            self._on_dispatch_failure(batch)
            return
        service_time = self._time_model.service_time(execution)
        if ctx is not None:
            tracer.end_batch(
                ctx,
                dispatched_at,
                execution,
                service_time,
                overhead=execution.dispatches * self._time_model.dispatch_overhead,
                routing=execution.cost.latency * self._time_model.time_per_latency,
            )
        self._sim.schedule(
            service_time, lambda: self._complete(batch, execution.peers, dispatched_at, ctx)
        )

    def _complete(self, batch, peers, dispatched_at: float, ctx=None) -> None:
        now = self._sim.now
        ok, shard_id, size = RequestStatus.OK, self.shard_id, len(batch)
        service = now - dispatched_at
        responses = [
            SampleResponse(
                req.request_id, ok, shard_id, peer, dispatched_at - req.arrival_time,
                service, now, size,
            )
            for req, peer in zip(batch, peers)
        ]
        self._in_flight = 0
        self.batches_served += 1
        self._healthy = True  # a success re-admits a recovering shard
        self._consecutive_failures = 0
        if self._metrics is not None:
            self._metrics.record_batch(responses)
        if self._sink is not None:
            for response in responses:
                self._sink(response)
        if self._tracer.enabled:
            self._tracer.finish_requests(responses, ctx)
        self._maybe_flush()

    # -- the churn failure path -------------------------------------------

    def _on_dispatch_failure(self, batch: list[SampleRequest]) -> None:
        """Handle one dead dispatch: back off and retry, or fail the batch."""
        self._in_flight = 0
        self._healthy = False
        self.dispatch_failures += 1
        self._consecutive_failures += 1
        if self._metrics is not None:
            self._metrics.record_dispatch_failure(self.shard_id)
        if not self.retry_policy.should_retry(self._consecutive_failures):
            self._consecutive_failures = 0  # fresh allowance for the next batch
            self._fail_batch(batch)
            # Half-open re-admission: the router sheds an unhealthy
            # shard, so an idle one would never see the traffic that
            # could prove it recovered.  After one more backoff it may
            # take traffic again; a still-broken substrate just flips
            # it straight back to unhealthy.  The probe delay stays on
            # the flat legacy knob: it is circuit-breaker pacing, not a
            # retry of anything, so the policy's escalation curve (which
            # indexes by consecutive failures) does not apply to it.
            self._sim.schedule(self.retry_backoff, self._readmit_probe)
            return
        self.retries += 1
        self._queue.extendleft(reversed(batch))  # head of the line, same order
        self._cooling = True
        cooldown = self.retry_policy.delay(self._consecutive_failures, self._retry_rng)
        if self._tracer.enabled:
            self._tracer.record_backoff(
                [r.request_id for r in batch],
                self._sim.now,
                cooldown,
                self._consecutive_failures,
            )
        self._sim.schedule(cooldown, self._retry_flush)

    def _retry_flush(self) -> None:
        self._cooling = False
        # Re-estimate *after* the backoff, when stabilization has had a
        # chance to repair the overlay the estimate will run against;
        # a failed refresh just keeps the old parameters.  Then pre-warm
        # the substrate's batch-routing caches (the Chord lockstep
        # snapshot) so the retried batch dispatches against a fresh
        # snapshot instead of rebuilding one mid-dispatch.
        refresh = getattr(self._dispatch, "refresh", None)
        if refresh is not None:
            refresh()
        warm = getattr(self._dispatch, "warm", None)
        if warm is not None:
            warm()
        self._maybe_flush()

    def _readmit_probe(self) -> None:
        # A stale probe must not override a *newer* failure cycle: only
        # re-admit a shard that is idle (not cooling toward a retry and
        # not in service -- those paths decide health on their own).
        if not self._cooling and not self.busy:
            self._healthy = True

    def _fail_batch(self, batch: list[SampleRequest]) -> None:
        """Terminate every request of a batch with an explicit FAILED."""
        now = self._sim.now
        self.failed_requests += len(batch)
        responses = [
            SampleResponse(
                request_id=req.request_id,
                status=RequestStatus.FAILED,
                shard_id=self.shard_id,
                peer=None,
                queue_latency=now - req.arrival_time,
                service_latency=0.0,
                completion_time=now,
                batch_size=len(batch),
            )
            for req in batch
        ]
        if self._metrics is not None:
            self._metrics.record_failed(responses)
        if self._sink is not None:
            for response in responses:
                self._sink(response)
        if self._tracer.enabled:
            self._tracer.finish_requests(responses)
