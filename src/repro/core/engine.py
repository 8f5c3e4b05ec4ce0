"""Batch sampling engine: vectorized Choose-Random-Peer.

The scalar :class:`~repro.core.sampler.RandomPeerSampler` pays Python
method-call, dataclass-allocation and metering overhead *per trial*,
which dominates wall-clock long before the algorithm's own
O(1)-trials / O(log n)-latency guarantees do.  :class:`BatchSampler`
runs the identical algorithm over a whole vector of trials at once:

- all trial points are drawn up front and resolved to their ``h``
  successors in one pass over the substrate's flat point array
  (``numpy.searchsorted`` when available, else a pure-Python
  ``bisect`` loop);
- small-hit classification is a single vectorized comparison;
- the clockwise walks run through one *windowed* kernel: each trial's
  row holds the clockwise gaps of the ``walk_budget`` ring positions
  after its first peer, read in one gather, and a ``cumsum`` along the
  hop axis finds the first hop where ``T <= 0`` -- no
  :class:`~repro.dht.api.PeerRef` or
  :class:`~repro.core.sampler.TrialResult` allocation per hop, with
  results materialized once at the end;
- failed trials are rejection-retried in batched rounds sized by the
  observed per-trial success rate;
- the cost meter is charged once per round via
  :meth:`~repro.dht.api.CostMeter.charge_bulk` with totals identical to
  what the per-call path would have accumulated.

Every float operation matches the scalar path's expression tree
exactly (``cumsum`` adds in order, so it reproduces the scalar
``t += step - lam``), so for the same trial points the engine and
:meth:`RandomPeerSampler.trial` produce *identical* outcomes (asserted
by the seeded equivalence tests).  On substrates that do not satisfy
:class:`~repro.dht.api.BulkDHT` (the live overlays) the engine resolves
``h`` through the substrate's batched resolver and replays the walks
through the same kernel when the substrate offers a certified walk view
(see :meth:`BatchSampler._trials_fallback`); otherwise it walks through
the shared per-call trial helper, preserving semantics at per-call
speed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence

from dataclasses import dataclass

from ..compat import load_numpy

from ..dht.api import (
    DHT,
    BulkDHT,
    CostSnapshot,
    PeerRef,
    PeerUnreachableError,
)
from .errors import SamplingError
from .estimate import DEFAULT_C1, estimate_n
from .intervals import ONE_BELOW, clockwise_distances, ring_gaps
from .sampler import (
    GAMMA1,
    LAMBDA_SLACK,
    SamplerParams,
    TrialOutcome,
    TrialResult,
    _trial_from_first,
)

__all__ = ["BatchSampler", "BatchSampleResult"]

# Optional acceleration; the pure-Python path is always available and
# REPRO_PURE_PYTHON forces it (see repro.compat).
_np = load_numpy()

#: Cap on trial points drawn per rejection round (bounds peak memory).
_MAX_ROUND = 1 << 18

#: Trials per slab of the walk kernel.  A slab's scratch is
#: ``_WALK_SLAB * walk_budget`` doubles, so the kernel's memory stays
#: bounded however large a rejection round is.
_WALK_SLAB = 2048

# Outcome codes used inside the classification kernels (cheap ints in
# the hot loop; mapped to TrialOutcome only at materialization time).
_SMALL, _WALK, _EXHAUSTED = 0, 1, 2


@dataclass(frozen=True, slots=True)
class BatchSampleResult:
    """One metered :meth:`BatchSampler.sample_many` execution.

    ``peers`` are the ``k`` successful draws *in draw order*, so a caller
    that coalesced ``k`` single-sample requests may attribute
    ``peers[j]`` to request ``j``: the draws are i.i.d. uniform, making
    any fixed assignment of results to requests exchangeable.  ``cost``
    is the substrate meter delta attributable to this call, which is
    what serving layers convert into simulated service time.
    """

    peers: tuple[PeerRef, ...]
    trials: int
    rounds: int
    cost: CostSnapshot


class BatchSampler:
    """Bulk uniform peer sampling over any :class:`~repro.dht.api.DHT`.

    Construction mirrors :class:`~repro.core.sampler.RandomPeerSampler`;
    alternatively pass a resolved ``params`` to share a scalar sampler's
    parameters (this is what :meth:`RandomPeerSampler.sample_many` does
    when delegating).
    """

    def __init__(
        self,
        dht: DHT,
        n_hat: float | None = None,
        *,
        params: SamplerParams | None = None,
        gamma1: float = GAMMA1,
        lambda_slack: float = LAMBDA_SLACK,
        c1: float = DEFAULT_C1,
        rng: random.Random | None = None,
        max_trials: int = 10_000,
        tracer=None,
    ):
        self._dht = dht
        self._rng = rng if rng is not None else random.Random()
        #: Optional span sink (:class:`repro.obs.tracer.Tracer`); the
        #: engine reports per-round trial/success/cost attribution while
        #: the tracer has an active batch context, and touches nothing
        #: (no snapshots, no allocation) when it does not.
        self._tracer = tracer
        self._gamma1 = gamma1
        self._lambda_slack = lambda_slack
        self._c1 = c1
        if params is None:
            if n_hat is None:
                n_hat = estimate_n(dht, c1=c1).n_hat
            params = SamplerParams.from_estimate(
                n_hat, gamma1=gamma1, lambda_slack=lambda_slack
            )
        self.params = params
        if max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        self._max_trials = max_trials
        self._bulk = isinstance(dht, BulkDHT)
        #: Trials lost to transient peer unreachability (routing holes,
        #: crashed walk hops) on the per-call fallback path.  Each such
        #: trial is treated exactly like an EXHAUSTED outcome -- retried
        #: with fresh randomness by the rejection loop -- so churn shows
        #: up as extra trials, never as a leaked substrate exception.
        self.stale_trials = 0
        #: ``(ring, params, windows)`` of the last walk-kernel input (see
        #: :meth:`_windows_for`).
        self._windows = None

    @property
    def dht(self) -> DHT:
        """The substrate this engine samples over (read-only)."""
        return self._dht

    def warm(self) -> bool:
        """Pre-build the substrate's batch-routing caches, if it has any.

        Delegates to the substrate's ``warm_lockstep`` hook (the Chord
        adapters build their ring snapshot, walk view and route table);
        a no-op returning False on substrates without one.  Serving
        shards call this right after a churn-recovery :meth:`refresh`
        so the next dispatch does not pay cache (re)construction on the
        request path.
        """
        warm = getattr(self._dht, "warm_lockstep", None)
        return bool(warm()) if warm is not None else False

    def refresh(self, n_hat: float | None = None) -> SamplerParams:
        """Re-derive parameters from a fresh size estimate (see
        :meth:`RandomPeerSampler.refresh <repro.core.sampler.RandomPeerSampler.refresh>`;
        serving shards call this when re-admitting after churn failures)."""
        if n_hat is None:
            n_hat = estimate_n(self._dht, c1=self._c1).n_hat
        self.params = SamplerParams.from_estimate(
            n_hat, gamma1=self._gamma1, lambda_slack=self._lambda_slack
        )
        return self.params

    # -- vectorized classification kernels --------------------------------

    def _windows_for(self, ring, gaps=None):
        """The walk kernel's step rows for ``ring`` under the current parameters.

        ``ring`` identifies one ring state: the ideal substrate's point
        array (whose gaps are derived here) or a Chord walk view (which
        carries its ``gaps``).  The rows are rebuilt only when the ring
        state or the parameters change, never once per round.
        """
        params = self.params
        cached = self._windows
        if cached is None or cached[0] is not ring or cached[1] is not params:
            if gaps is None:
                gaps = ring_gaps(ring)
            cached = self._windows = (
                ring, params, _walk_windows(gaps, params.lam, params.walk_budget)
            )
        return cached[2]

    def _classify_charged(self, points: Sequence[float]):
        """Run Figure 1 on every point against the flat point array.

        Returns ``(codes, out_idx, hops)`` parallel lists: the outcome
        code, the assigned peer's sorted index (``-1`` if none) and the
        walk length of each trial.  Charges the substrate's meter once
        for the whole batch.
        """
        pts = self._dht.points_array()
        lam = self.params.lam
        budget = self.params.walk_budget
        if _np is not None:
            pts = _np.asarray(pts, dtype=_np.float64)
            codes, out_idx, hops = _kernel_numpy(
                pts, self._windows_for(pts), lam, points
            )
            total_hops = int(hops.sum())
            codes, out_idx, hops = codes.tolist(), out_idx.tolist(), hops.tolist()
        else:
            codes, out_idx, hops, total_hops = _kernel_python(
                pts, len(pts), lam, budget, points
            )
        hm, hl, nm, nl = self._dht.bulk_op_costs()
        k = len(points)
        self._dht.cost.charge_bulk(
            h_calls=k,
            next_calls=total_hops,
            messages=k * hm + total_hops * nm,
            latency=k * hl + total_hops * nl,
        )
        return codes, out_idx, hops

    # -- public API --------------------------------------------------------

    def trial_many(self, points: Sequence[float]) -> list[TrialResult]:
        """Run Figure 1 once per point (no retries), batch-classified.

        Result ``j`` equals ``RandomPeerSampler.trial(points[j])`` for a
        sampler sharing this engine's parameters -- same peer, same
        :class:`~repro.core.sampler.TrialOutcome`, same walk length.
        """
        points = list(points)
        if not self._bulk:
            return self._trials_fallback(points)
        codes, out_idx, hops = self._classify_charged(points)
        succ = self._dht.successor_of_index
        results = []
        for s, code, idx, h in zip(points, codes, out_idx, hops):
            if code == _SMALL:
                results.append(
                    TrialResult(s=s, outcome=TrialOutcome.SMALL_HIT, peer=succ(int(idx)), walk_hops=0)
                )
            elif code == _WALK:
                results.append(
                    TrialResult(s=s, outcome=TrialOutcome.WALK_HIT, peer=succ(int(idx)), walk_hops=int(h))
                )
            else:
                results.append(
                    TrialResult(s=s, outcome=TrialOutcome.EXHAUSTED, peer=None, walk_hops=int(h))
                )
        return results

    def _trials_fallback(self, points: Sequence[float]) -> list[TrialResult]:
        """Batched-resolution path for substrates without a flat point array.

        The whole round's ``h(s)`` points are resolved first: substrates
        that offer a failure-tolerant batched resolver (``resolve_many``;
        the Chord adapters' is backed by the lockstep snapshot engine) get
        them in one call, others point by point, which is cost-identical
        to ``h_many`` on per-call substrates.

        The walks then run trial by trial, in order.  When the substrate
        offers a ``walk_view`` (the Chord adapters, when replay is exact)
        they are replayed through the windowed kernel instead of one
        ``next`` call per hop: the longest prefix of trials whose walk
        stays inside its *certified run* -- the hops from its first peer
        along which every successor pointer equals the next sorted live
        id -- is committed and its hops charged in one
        ``charge_walk`` call.  The first trial that leaves its run walks
        through per-call ``next`` from its first hop (nothing of it has
        been charged), which may stabilize the ring; the view is then
        re-read and the replay resumes with the next trial.  Results and
        charges are those of the per-call walk.

        Each per-call walk runs under a
        :class:`~repro.dht.api.PeerUnreachableError` guard: on a live
        overlay a peer can crash mid-walk, and the correct response is to
        discard that trial (it consumed randomness, it produced nothing)
        and let the rejection loop redraw -- not to abort the whole
        batch.
        """
        dht = self._dht
        resolve_many = getattr(dht, "resolve_many", None)
        firsts: list[PeerRef | None]
        if resolve_many is not None and len(points) > 1:
            firsts = resolve_many(points)
        else:
            firsts = []
            for s in points:
                try:
                    firsts.append(dht.h(s))
                except PeerUnreachableError:
                    firsts.append(None)
        walk_view = getattr(dht, "walk_view", None) if _np is not None else None
        results: list[TrialResult] = []
        k = len(points)
        i = 0
        view = None
        while i < k:
            fresh = walk_view() if walk_view is not None else None
            if fresh is None:
                results.extend(
                    self._walk_per_call(s, first)
                    for s, first in zip(points[i:], firsts[i:])
                )
                break
            if fresh is not view:
                view, base = fresh, i
                planned, starts, hops = self._plan_walks(view, points[i:], firsts[i:])
            end = i
            while end < k and planned[end - base] is not None:
                end += 1
            if end > i:
                lo, hi = i - base, end - base
                results.extend(planned[lo:hi])
                self.stale_trials += sum(first is None for first in firsts[i:end])
                dht.charge_walk(view, starts[lo:hi], hops[lo:hi])
            if end < k:
                results.append(self._walk_per_call(points[end], firsts[end]))
            i = end + 1
        return results

    def _plan_walks(self, view, points, firsts):
        """Figure 1 for every trial on ``view``: ``(results, starts, hops)`` lists.

        ``results[j]`` is trial ``j``'s outcome when ``view`` certifies
        it -- its first peer sits in the view and its stop hop lies inside
        that peer's run -- else None; ``starts[j]`` is the first peer's
        ring position (``-1`` if absent) and ``hops[j]`` the walk length.
        An unresolved trial (``None`` first) walks nowhere: it is
        certified as a stale, exhausted trial.
        """
        k = len(points)
        pids = _np.fromiter(
            (-1 if first is None else first.peer_id for first in firsts),
            dtype=_np.int64,
            count=k,
        )
        pos = view.positions(pids)
        known = _np.flatnonzero(pos >= 0)
        codes = _np.full(k, _EXHAUSTED, dtype=_np.int8)
        out_idx = _np.full(k, -1, dtype=_np.int64)
        hops = _np.zeros(k, dtype=_np.int64)
        if known.size:
            codes[known], out_idx[known], hops[known] = _classify(
                self._windows_for(view, view.gaps),
                view.points,
                pos[known],
                _np.asarray(points, dtype=_np.float64)[known],
                self.params.lam,
            )
        certified = (pids < 0) | ((pos >= 0) & (view.run[pos] >= hops))
        hops = hops.tolist()
        results: list[TrialResult | None] = []
        for s, first, code, idx, h, ok in zip(
            points, firsts, codes.tolist(), out_idx.tolist(), hops, certified.tolist()
        ):
            if not ok:
                results.append(None)
            elif first is None or code == _EXHAUSTED:
                results.append(TrialResult(s=s, outcome=TrialOutcome.EXHAUSTED, peer=None, walk_hops=h))
            elif code == _SMALL:
                results.append(TrialResult(s=s, outcome=TrialOutcome.SMALL_HIT, peer=first, walk_hops=0))
            else:
                results.append(TrialResult(s=s, outcome=TrialOutcome.WALK_HIT, peer=view.peer(idx), walk_hops=h))
        return results, pos.tolist(), hops

    def _walk_per_call(self, s: float, first: PeerRef | None) -> TrialResult:
        """One trial's walk through per-call ``next``; a liveness failure
        (or an unresolved ``h``) counts as a stale, exhausted trial."""
        if first is not None:
            try:
                return _trial_from_first(
                    self._dht, self.params.lam, self.params.walk_budget, s, first
                )
            except PeerUnreachableError:
                pass
        self.stale_trials += 1
        return TrialResult(s=s, outcome=TrialOutcome.EXHAUSTED, peer=None, walk_hops=0)

    def _round_successes(self, points: list[float]) -> list[PeerRef]:
        """Successful trials of one round, as peers in draw order."""
        if not self._bulk:
            return [r.peer for r in self._trials_fallback(points) if r.peer is not None]
        codes, out_idx, _hops = self._classify_charged(points)
        succ = self._dht.successor_of_index
        return [succ(int(i)) for c, i in zip(codes, out_idx) if c != _EXHAUSTED]

    def sample_many(self, k: int) -> list[PeerRef]:
        """Draw ``k`` independent uniform samples (with replacement).

        Trials are drawn in rounds sized ``need / p`` where ``p`` is the
        success-rate estimate (seeded from ``n_hat * lambda``, then
        updated from observation), so the expected number of rounds is
        O(1).  The total trial budget is ``max_trials * k``; exceeding
        it raises :class:`~repro.core.errors.SamplingError`, mirroring
        the scalar sampler's per-sample cap.
        """
        return list(self.sample_many_attributed(k).peers)

    def sample_many_attributed(self, k: int) -> BatchSampleResult:
        """Like :meth:`sample_many`, plus per-call attribution metadata.

        Returns a :class:`BatchSampleResult` whose ``peers`` are the
        draws in order (result ``j`` belongs to coalesced request ``j``),
        ``trials``/``rounds`` count the rejection work performed, and
        ``cost`` is this call's substrate meter delta.  The serving layer
        (:mod:`repro.service`) uses this hook to stamp per-request
        latency without re-deriving batch internals.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        before = self._dht.cost.snapshot()
        out: list[PeerRef] = []
        budget = self._max_trials * k
        used = 0
        rounds = 0
        p_est = min(max(self.params.n_hat * self.params.lam, 1e-4), 1.0)
        rand = self._rng.random
        # Round spans are recorded only while a sampled batch is being
        # dispatched; the check is hoisted because the whole call runs
        # inside one dispatch (one batch context), so activity cannot
        # change mid-loop.
        tracer = self._tracer
        tracing = tracer is not None and tracer.active
        while len(out) < k:
            if used >= budget:
                raise SamplingError(
                    f"only {len(out)} of {k} samples after {used} trials "
                    f"(n_hat={self.params.n_hat:.3g}); the size estimate is likely stale"
                )
            need = k - len(out)
            round_size = min(
                budget - used,
                _MAX_ROUND,
                max(need, int(need / p_est * 1.15) + 8),
            )
            points = [1.0 - rand() for _ in range(round_size)]
            used += round_size
            rounds += 1
            round_before = self._dht.cost.snapshot() if tracing else None
            successes = self._round_successes(points)
            if tracing:
                tracer.on_round(
                    rounds - 1,
                    round_size,
                    len(successes),
                    self._dht.cost.snapshot() - round_before,
                )
            p_est = min(max((len(successes) + 1) / (round_size + 2), 1e-4), 1.0)
            out.extend(successes[:need])
        return BatchSampleResult(
            peers=tuple(out),
            trials=used,
            rounds=rounds,
            cost=self._dht.cost.snapshot() - before,
        )

    def sample_distinct(self, k: int, max_draws: int | None = None) -> list[PeerRef]:
        """Draw ``k`` *distinct* peers, uniform over k-subsets.

        Batched analogue of the scalar rejection loop: each round draws
        the outstanding deficit through :meth:`sample_many` and dedupes
        by ``peer_id`` in draw order, which is exactly sequential simple
        random sampling.  The ``max_draws`` contract (default
        ``50 k + 50`` successful draws before
        :class:`~repro.core.errors.SamplingError`) is unchanged.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        cap = max_draws if max_draws is not None else 50 * k + 50
        chosen: dict[int, PeerRef] = {}
        draws = 0
        while len(chosen) < k:
            if draws >= cap:
                raise SamplingError(
                    f"only {len(chosen)} distinct peers after {draws} draws; "
                    f"is k={k} larger than the network?"
                )
            round_size = min(cap - draws, k - len(chosen))
            batch = self.sample_many(round_size)
            draws += len(batch)
            for peer in batch:
                chosen.setdefault(peer.peer_id, peer)
        return list(chosen.values())


# -- classification kernels (module-level: no self lookups in hot loops) --


def _walk_windows(gaps, lam, budget):
    """Row ``p`` holds ``gap - lam`` for the ``budget`` hops a walk from
    ring position ``p`` takes.

    A read-only sliding-window view over the gaps tiled far enough that
    every row runs ``budget`` positions clockwise, lapping the ring as
    often as a budget of ``n`` or more requires.  ``gap - lam`` is the
    scalar loop's ``step - lam``, computed once per ring state.
    """
    n = len(gaps)
    span = n + budget - 1
    steps = _np.tile(gaps, -(-span // n))[:span] - lam
    return _np.lib.stride_tricks.sliding_window_view(steps, budget)


def _walk_kernel(windows, n, first, arc, lam):
    """Figure 1's clockwise walk for every trial, one window gather per slab.

    ``first`` holds each trial's first ring position and ``arc`` its
    non-small ``d(s, l(h(s)))``.  A trial's row starts as its window of
    ``gap - lam`` steps; adding ``arc - lam`` to the first step and
    running ``cumsum`` along the hop axis yields the scalar loop's ``T``
    after each hop bit for bit (``cumsum`` adds in order, and ``a + b``
    is ``b + a`` exactly).  Returns ``(stop, hops)``: the ring position
    where ``T`` first drops to ``<= 0`` (``-1`` for an exhausted walk)
    and the hops taken.
    """
    k = len(first)
    budget = windows.shape[1]
    stop = _np.full(k, -1, dtype=_np.int64)
    hops = _np.full(k, budget, dtype=_np.int64)
    if n == 1:
        # A self-successor lap adds 1 - lam > 0 per hop, so T never
        # drops: every walk exhausts the full budget.
        return stop, hops
    for lo in range(0, k, _WALK_SLAB):
        rows = first[lo : lo + _WALK_SLAB]
        t = windows[rows]
        t[:, 0] += arc[lo : lo + _WALK_SLAB] - lam
        _np.cumsum(t, axis=1, out=t)
        hit = t <= 0.0
        j = hit.argmax(axis=1)
        done = _np.flatnonzero(hit[_np.arange(len(rows)), j])
        taken = j[done] + 1
        hops[lo + done] = taken
        stop[lo + done] = (rows[done] + taken) % n
    return stop, hops


def _classify(windows, ring_pts, first, ss, lam):
    """Figure 1 for points ``ss`` whose ``h`` sits at ring positions ``first``.

    Returns ``(codes, out_idx, hops)`` arrays: the outcome code, the
    assigned peer's ring position (``-1`` if none) and the walk length
    of each trial.
    """
    arc = clockwise_distances(ss, ring_pts[first])
    small = arc < lam
    codes = _np.where(small, _SMALL, _EXHAUSTED).astype(_np.int8)
    out_idx = _np.where(small, first, -1)
    hops = _np.zeros(len(ss), dtype=_np.int64)
    walk = _np.flatnonzero(~small)
    stop, hops[walk] = _walk_kernel(windows, len(ring_pts), first[walk], arc[walk], lam)
    hit = stop >= 0
    codes[walk[hit]] = _WALK
    out_idx[walk[hit]] = stop[hit]
    return codes, out_idx, hops


def _kernel_numpy(pts, windows, lam, points):
    """Vectorized Figure 1 over all trials against the flat point array.

    ``h`` is a ``searchsorted`` over the sorted points; the walks run
    through :func:`_walk_kernel`.  Outcomes are bit-identical to
    :meth:`RandomPeerSampler.trial`.
    """
    ss = _np.asarray(points, dtype=_np.float64)
    ok = (ss > 0.0) & (ss <= 1.0)  # negated form would let NaN slip through
    if not ok.all():
        bad = ss[~ok][0]
        raise ValueError(f"point {bad!r} is outside the unit circle (0, 1]")
    idx = _np.searchsorted(pts, ss, side="left")
    idx[idx == len(pts)] = 0
    return _classify(windows, pts, idx, ss, lam)


def _kernel_python(pts, n, lam, budget, points):
    """Pure-Python fast path: raw floats and indices, zero allocations
    per hop.  Identical arithmetic to the scalar trial."""
    codes: list[int] = []
    out_idx: list[int] = []
    hops_list: list[int] = []
    total_hops = 0
    for s in points:
        if not 0.0 < s <= 1.0:
            raise ValueError(f"point {s!r} is outside the unit circle (0, 1]")
        i = bisect_left(pts, s)
        if i == n:
            i = 0
        cur = pts[i]
        arc = cur - s if cur >= s else (1.0 - s) + cur
        if arc >= 1.0:
            arc = ONE_BELOW
        if arc < lam:
            codes.append(_SMALL)
            out_idx.append(i)
            hops_list.append(0)
            continue
        t = arc - lam
        code = _EXHAUSTED
        assigned = -1
        taken = 0
        if n == 1:
            taken = budget
        else:
            for hop in range(1, budget + 1):
                ni = i + 1
                if ni == n:
                    ni = 0
                npt = pts[ni]
                step = npt - cur if npt >= cur else (1.0 - cur) + npt
                if step >= 1.0:
                    step = ONE_BELOW
                t += step - lam
                taken = hop
                if t <= 0.0:
                    code = _WALK
                    assigned = ni
                    break
                i = ni
                cur = npt
        codes.append(code)
        out_idx.append(assigned)
        hops_list.append(taken)
        total_hops += taken
    return codes, out_idx, hops_list, total_hops
