"""Output checks: every run fails unless the program served correctly.

Each check returns ``(name, ok, detail)``.  The checks are:

- accounting: ``completed + rejected + failed == submitted``;
- liveness: every drawn peer was a member of its shard's ring when it
  was drawn (at dispatch time; on ``chord-churn`` from the churn log);
- uniformity (static rings only): a chi-square over ring-rank bins
  passes ``CHI2_FLOOR`` (Theorem 6: every peer is equally likely);
- ring recovery (churning rings): the scenario runner's verdict holds;
- meter parity: ``msgs_per_draw`` times the completed draws equals the
  substrate meter delta, and that delta matches an independent count
  (the transport's message counter on a static overlay, the unit cost
  model on the ideal oracle, at most the transport count under churn);
- tail support: at least ten completed requests lie beyond p95.
"""

from __future__ import annotations

import bisect

from repro.analysis.stats import chi_square_uniform
from repro.service import RequestStatus

from .workloads import Served, System, Workload, latencies, percentile

__all__ = ["CHI2_FLOOR", "run_checks"]

#: p-value floor for the rank-bin chi-square.  Fixed and far below any
#: false-alarm rate that matters over thousands of runs, yet a sampler
#: biased enough to shift a bin by a few percent at these draw counts
#: fails it.
CHI2_FLOOR = 1e-6


def _accounting(system: System, served: Served):
    m = system.service.metrics
    ok = m.completed + m.rejected + m.failed == served.submitted
    return (
        "accounting",
        ok,
        f"completed {m.completed} + rejected {m.rejected} + failed {m.failed}"
        f" vs submitted {served.submitted}",
    )


def _membership_intervals(system: System, served: Served) -> dict[int, list[list[float]]]:
    """Per peer id of shard 0, the ``[joined, departed)`` intervals of the run."""
    inf = float("inf")
    spans = {peer: [[0.0, inf]] for peer in system.members[0]}
    for t, kind, peer in served.churn_log:
        if kind == "join":
            spans.setdefault(peer, []).append([t, inf])
        else:
            spans[peer][-1][1] = t
    return spans


def _liveness(system: System, served: Served, w: Workload):
    service = system.service
    dead = 0
    drawn = 0
    if w.static:
        for r in service.responses:
            if r.status is RequestStatus.OK:
                drawn += 1
                if r.peer.peer_id not in system.members[r.shard_id]:
                    dead += 1
    else:
        spans = _membership_intervals(system, served)
        for r in service.responses:
            if r.status is not RequestStatus.OK:
                continue
            drawn += 1
            drawn_at = r.completion_time - r.service_latency
            if not any(a <= drawn_at < b for a, b in spans.get(r.peer.peer_id, ())):
                dead += 1
    return ("liveness", dead == 0 and drawn > 0, f"{dead} of {drawn} draws not live when drawn")


def _uniformity(system: System):
    """Chi-square over rank bins, pooled across shards (each bin equally likely)."""
    service = system.service
    draws = [r for r in service.responses if r.status is RequestStatus.OK]
    bins = max(2, min(64, len(draws) // 20))
    counts = [0] * bins
    ranks = [sorted(members) for members in system.members]
    for r in draws:
        ring = ranks[r.shard_id]
        rank = bisect.bisect_left(ring, r.peer.peer_id)
        counts[rank * bins // len(ring)] += 1
    p = chi_square_uniform(counts).p_value
    return ("uniformity", p >= CHI2_FLOOR, f"chi-square p={p:.3g} over {bins} rank bins (floor {CHI2_FLOOR:g})")


def _meter_parity(system: System, served: Served, w: Workload, msgs_per_draw: float):
    completed = system.service.metrics.completed
    charged = sum(c.messages for c in served.cost)
    ok = abs(msgs_per_draw * completed - charged) <= 1e-6 * max(1, charged)
    if w.substrate == "ideal":
        expected = 0
        for dht, cost in zip(system.substrates, served.cost):
            hm, _, nm, _ = dht.bulk_op_costs()
            expected += cost.h_calls * hm + cost.next_calls * nm
        ok = ok and charged == expected
        detail = f"meter {charged} vs unit-cost model {expected}"
    elif w.static:
        sent = sum(served.transport_messages)
        ok = ok and charged == sent
        detail = f"meter {charged} vs transport {sent}"
    else:
        sent = sum(served.transport_messages)
        ok = ok and charged <= sent
        detail = f"meter {charged} within transport {sent} (maintenance included)"
    return ("meter_parity", ok, detail)


def _tail(system: System):
    lat = latencies(system.service)
    p95 = percentile(lat, 95)
    beyond = sum(1 for x in lat if x > p95)
    return ("tail_support", beyond >= 10, f"{beyond} of {len(lat)} completions beyond p95")


def run_checks(w: Workload, system: System, served: Served, msgs_per_draw: float) -> list:
    checks = [
        _accounting(system, served),
        _liveness(system, served, w),
        _meter_parity(system, served, w, msgs_per_draw),
        _tail(system),
    ]
    if w.static:
        checks.append(_uniformity(system))
    else:
        checks.append(
            ("ring_recovery", bool(served.ring_recovered), f"recovered={served.ring_recovered}")
        )
    return checks
