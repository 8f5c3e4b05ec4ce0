"""Service-level metric view: latency tails, throughput, backpressure.

Built on :mod:`repro.sim.metrics` primitives.  Latency histograms use
bounded reservoirs by default so an open-loop run of millions of
requests holds memory constant; counts, means and extremes stay exact
(see :class:`~repro.sim.metrics.Histogram`).
"""

from __future__ import annotations

from ..sim.metrics import Histogram, MetricsRegistry
from .request import RequestStatus, SampleResponse

__all__ = ["ServiceMetrics", "DEFAULT_RESERVOIR"]

#: Default latency-reservoir bound: large enough that nearest-rank p99
#: is stable, small enough to keep long service runs at constant memory.
DEFAULT_RESERVOIR = 8192


class ServiceMetrics:
    """Aggregated queue/service latency and per-shard throughput.

    One instance is shared by every shard worker of a service; methods
    are called on the simulator thread only (the kernel is
    single-threaded), so no locking is needed.
    """

    def __init__(
        self, num_shards: int, reservoir_size: int | None = DEFAULT_RESERVOIR
    ) -> None:
        self.registry = registry = MetricsRegistry()
        self._num_shards = num_shards
        self._reservoir = reservoir_size
        # Created eagerly so summaries list every series even when empty,
        # and held so the recording hooks look no name up.
        self._queue, self._service, self._total, self._failed_wait = (
            self._hist(name)
            for name in ("queue_latency", "service_latency", "total_latency",
                         "failed_wait")
        )
        self._batch_size = self._hist("batch_size")
        self._accepted = registry.counter("accepted")
        self._rejected = registry.counter("rejected")
        self._completed = registry.counter("completed")
        self._failed = registry.counter("failed")
        self._dispatch_failures = registry.counter("dispatch_failures")
        self._shards = [
            {
                name: registry.counter(f"shard{shard_id}.{name}")
                for name in ("completed", "rejected", "batches", "failed",
                             "dispatch_failures")
            }
            for shard_id in range(num_shards)
        ]

    def _hist(self, name: str) -> Histogram:
        return self.registry.histogram(name, reservoir_size=self._reservoir)

    # -- recording hooks (called by the service / shard workers) ---------

    def record_admitted(self) -> None:
        self._accepted.increment()

    def record_rejected(self, shard_id: int) -> None:
        self._rejected.increment()
        self._shards[shard_id]["rejected"].increment()

    def record_dispatch_failure(self, shard_id: int) -> None:
        """One dispatch died under churn (it may still be retried)."""
        self._dispatch_failures.increment()
        self._shards[shard_id]["dispatch_failures"].increment()

    def record_failed(self, responses: list[SampleResponse]) -> None:
        """Record one batch terminated with FAILED (retries exhausted).

        The wait each request burned before failing goes into its own
        ``failed_wait`` histogram: the OK-latency percentiles stay
        success-only (the convention load reports expect), while the
        worst-outcome waits -- typically ``max_retries x retry_backoff``
        under churn -- remain measured instead of vanishing.
        """
        if not responses:
            return
        self._failed.increment(len(responses))
        self._shards[responses[0].shard_id]["failed"].increment(len(responses))
        wait = self._failed_wait
        for r in responses:
            wait.observe(r.queue_latency)

    def record_batch(self, responses: list[SampleResponse]) -> None:
        """Record one completed dispatch (all responses share a shard)."""
        if not responses:
            return
        shard = self._shards[responses[0].shard_id]
        shard["batches"].increment()
        self._batch_size.observe(float(len(responses)))
        q, s, t = self._queue, self._service, self._total
        completed = self._completed
        by_shard = shard["completed"]
        for r in responses:
            if r.status is not RequestStatus.OK:
                continue
            completed.increment()
            by_shard.increment()
            q.observe(r.queue_latency)
            s.observe(r.service_latency)
            t.observe(r.total_latency)

    # -- views ------------------------------------------------------------

    @property
    def accepted(self) -> int:
        return self.registry.counter("accepted").value

    @property
    def rejected(self) -> int:
        return self.registry.counter("rejected").value

    @property
    def completed(self) -> int:
        return self.registry.counter("completed").value

    @property
    def failed(self) -> int:
        return self.registry.counter("failed").value

    @property
    def dispatch_failures(self) -> int:
        return self.registry.counter("dispatch_failures").value

    def shard_completed(self, shard_id: int) -> int:
        return self.registry.counter(f"shard{shard_id}.completed").value

    def summary(self, elapsed: float | None = None) -> dict:
        """One JSON-ready dict: counts, latency tails, shard throughput.

        ``elapsed`` (simulated time units) adds throughput figures:
        overall and per-shard completed requests per time unit.
        """
        out: dict = {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "dispatch_failures": self.dispatch_failures,
            "latency": {
                name: self.registry.histogram(name).summary()
                for name in ("queue_latency", "service_latency", "total_latency",
                             "failed_wait")
            },
            "batch_size": self.registry.histogram("batch_size").summary(),
            "shards": {},
        }
        for shard_id in range(self._num_shards):
            shard: dict = {
                "completed": self.shard_completed(shard_id),
                "rejected": self.registry.counter(f"shard{shard_id}.rejected").value,
                "batches": self.registry.counter(f"shard{shard_id}.batches").value,
                "failed": self.registry.counter(f"shard{shard_id}.failed").value,
                "dispatch_failures": self.registry.counter(
                    f"shard{shard_id}.dispatch_failures"
                ).value,
            }
            if elapsed and elapsed > 0:
                shard["throughput"] = shard["completed"] / elapsed
            out["shards"][shard_id] = shard
        if elapsed and elapsed > 0:
            out["elapsed"] = elapsed
            out["throughput"] = self.completed / elapsed
        return out
