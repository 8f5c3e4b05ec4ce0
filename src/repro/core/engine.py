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
- a round is classified whole but committed only up to its last needed
  success, in draw order: the cost meter is charged once per round via
  :meth:`~repro.dht.api.CostMeter.charge_bulk` for exactly the trials a
  sequential scalar loop would have run, and the round's unconsumed
  points stay queued for the next round or call, so the engine reads
  the RNG's point stream exactly as that loop does.

Every float operation matches the scalar path's expression tree
exactly (``cumsum`` adds in order, so it reproduces the scalar
``t += step - lam``), so for the same trial points the engine and
:meth:`RandomPeerSampler.trial` produce *identical* outcomes, and for
the same seed the engine draws the peers, and charges the costs, of
sequential scalar draws (asserted by the seeded equivalence tests).  On
substrates that do not satisfy :class:`~repro.dht.api.BulkDHT` (the
live overlays) the engine resolves ``h`` without charges through the
substrate's batched resolver, replays the walks through the same kernel
when the substrate offers a certified walk view, and commits the
certified prefix (see :meth:`BatchSampler._round_fallback`); every
other trial runs on its own through the per-call path.  The scalar
sampler's draws are this engine at ``k = 1``.
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

#: A round draws about this many times the expected trials of its
#: outstanding draws, so that a second round is rare.  Only the trials up
#: to the last needed success are committed, so a larger round costs
#: classification CPU, never charged work.
_ROUND_FACTOR = 2.0

#: Trials per slab of the walk kernel.  A slab's scratch is
#: ``_WALK_SLAB * walk_budget`` doubles, so the kernel's memory stays
#: bounded however large a rejection round is.
_WALK_SLAB = 2048

# Outcome codes used inside the classification kernels (cheap ints in
# the hot loop; mapped to TrialOutcome only at materialization time).
# A code below _EXHAUSTED is a success; _UNKNOWN marks a trial whose
# outcome was not computed (its lookup failed, or no trial that late in
# its round can be committed).
_SMALL, _WALK, _EXHAUSTED, _UNKNOWN = 0, 1, 2, 3
_OUTCOMES = (TrialOutcome.SMALL_HIT, TrialOutcome.WALK_HIT, TrialOutcome.EXHAUSTED)


@dataclass(frozen=True, slots=True)
class BatchSampleResult:
    """One metered :meth:`BatchSampler.sample_many` execution.

    ``peers`` are the ``k`` successful draws *in draw order*, so a caller
    that coalesced ``k`` single-sample requests may attribute
    ``peers[j]`` to request ``j``: the draws are i.i.d. uniform, making
    any fixed assignment of results to requests exchangeable.  ``cost``
    is the substrate meter delta attributable to this call, which is
    what serving layers convert into simulated service time.
    ``trials`` counts the committed (charged) trials and ``walk_hits``
    the draws that a clockwise walk assigned (the rest were small hits).
    """

    peers: tuple[PeerRef, ...]
    trials: int
    rounds: int
    cost: CostSnapshot
    walk_hits: int = 0


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
        #: Drawn trial points no round has committed yet, in draw order
        #: (see :meth:`sample_many_attributed`).  A point is independent
        #: of every trial before it, so it is classified against the ring
        #: as it stands whenever it is committed.
        self._pending: list[float] = []

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
        serving shards call this when re-admitting after churn failures).
        Queued trial points are kept: a point does not depend on ``n_hat``."""
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

    def _run_kernel(self, points: Sequence[float], need: int):
        """Run Figure 1 on points against the flat point array, uncharged.

        Returns ``(codes, out_idx, hops)``: the outcome code, the
        assigned peer's sorted index (``-1`` if none) and the walk length
        of each trial -- numpy arrays over every point, or, in the
        pure-Python lane, lists that stop at the ``need``-th success.
        """
        pts = self._dht.points_array()
        lam = self.params.lam
        if _np is not None:
            pts = _np.asarray(pts, dtype=_np.float64)
            return _kernel_numpy(pts, self._windows_for(pts), lam, points, need)
        return _kernel_python(pts, len(pts), lam, self.params.walk_budget, points, need)

    def _charge(self, trials: int, hops: int) -> None:
        """Charge ``trials`` ``h`` calls and ``hops`` ``next`` calls at unit cost."""
        hm, hl, nm, nl = self._dht.bulk_op_costs()
        self._dht.cost.charge_bulk(
            h_calls=trials,
            next_calls=hops,
            messages=trials * hm + hops * nm,
            latency=trials * hl + hops * nl,
        )

    # -- public API --------------------------------------------------------

    def trial_many(self, points: Sequence[float]) -> list[TrialResult]:
        """Run Figure 1 once per point (no retries), batch-classified.

        Result ``j`` equals ``RandomPeerSampler.trial(points[j])`` for a
        sampler sharing this engine's parameters -- same peer, same
        :class:`~repro.core.sampler.TrialOutcome`, same walk length --
        and the charges equal those trials' in total.
        """
        points = list(points)
        results: list[TrialResult] = []
        if not self._bulk:
            self._round_fallback(points, len(points) + 1, results)
            return results
        if _np is not None:
            _check_points(points)
        codes, out_idx, hops = self._run_kernel(points, len(points))
        if _np is not None:
            codes, out_idx, hops = codes.tolist(), out_idx.tolist(), hops.tolist()
        self._charge(len(points), sum(hops))
        succ = self._dht.successor_of_index
        for s, code, idx, h in zip(points, codes, out_idx, hops):
            peer = None if code == _EXHAUSTED else succ(idx)
            results.append(TrialResult(s=s, outcome=_OUTCOMES[code], peer=peer, walk_hops=h))
        return results

    def _round(self, points: list[float], need: int):
        """Classify one rejection round and commit it up to its ``need``-th success.

        Returns ``(peers, taken, walk_hits, successes, classified)``: the
        committed successes' peers in draw order (at most ``need``), how
        many trials were committed -- charged, in draw order, exactly as
        sequential scalar trials -- how many of those peers came from a
        walk, and the successes among the ``classified`` trials whose
        outcome the round learned, the evidence for the next round's size.
        """
        if not self._bulk:
            return self._round_fallback(points, need, None)
        codes, out_idx, hops = self._run_kernel(points, need)
        succ = self._dht.successor_of_index
        if _np is None:
            taken = len(codes)
            self._charge(taken, sum(hops))
            wins = [j for j, code in enumerate(codes) if code < _EXHAUSTED]
            peers = [succ(out_idx[j]) for j in wins]
            walk_hits = sum(codes[j] == _WALK for j in wins)
            return peers, taken, walk_hits, len(wins), taken
        wins = (codes < _EXHAUSTED).nonzero()[0]
        successes = len(wins)
        taken = len(points)
        if successes >= need:
            wins = wins[:need]
            taken = int(wins[-1]) + 1
        self._charge(taken, int(hops[:taken].sum()))
        peers = [succ(i) for i in out_idx[wins].tolist()]
        walk_hits = int(_np.count_nonzero(codes[wins] == _WALK))
        return peers, taken, walk_hits, successes, len(points)

    def _round_fallback(self, points: list[float], need: int, results):
        """:meth:`_round` for substrates without a flat point array.

        Where the substrate resolves lookups without side effects
        (``resolve_many(..., commit=False)``) and offers a walk view, the
        remaining points are resolved and classified in one pass, and the
        longest prefix of *certified* trials -- a successful lookup, and a
        walk that stays inside its first peer's run of the view -- is
        committed, up to the ``need``-th success, through one
        ``commit_lookups`` call.  The first trial past the prefix runs on
        its own (:meth:`_live_trial`): its lookup through the batched
        resolver, which re-executes a failing lookup live, and its walk
        through per-call ``next``.  Either may stabilize the ring; the
        view is then re-read and, if the ring changed, the remaining
        points are resolved afresh.  Every other configuration runs one
        trial at a time.  Results and charges are those of sequential
        scalar trials; ``results``, when a list, receives each committed
        trial's :class:`~repro.core.sampler.TrialResult`.
        """
        dht = self._dht
        walk_view = None
        if _np is not None and hasattr(dht, "commit_lookups"):
            walk_view = getattr(dht, "walk_view", None)
        peers: list[PeerRef] = []
        walk_hits = successes = classified = 0

        def keep(result: TrialResult) -> None:
            nonlocal walk_hits
            if result.peer is not None:
                peers.append(result.peer)
                walk_hits += result.outcome is TrialOutcome.WALK_HIT
            if results is not None:
                results.append(result)

        k = len(points)
        i = 0
        while i < k and len(peers) < need:
            view = walk_view() if walk_view is not None else None
            found = dht.resolve_many(points[i:], commit=False) if view is not None else None
            if not found:
                result = self._live_trial(points[i])
                keep(result)
                i += 1
                classified += 1
                successes += result.peer is not None
                continue
            rest = points[i : i + len(found)]
            codes, starts, stops, hops, certified = self._plan_walks(
                view, rest, found, need - len(peers)
            )
            classified += int(_np.count_nonzero(starts >= 0))
            successes += int(_np.count_nonzero(codes < _EXHAUSTED))
            j = 0
            for end in (~certified).nonzero()[0].tolist() + [len(found)]:
                wins = j + (codes[j:end] < _EXHAUSTED).nonzero()[0]
                short = need - len(peers)
                if len(wins) >= short:
                    wins = wins[:short]
                    end = int(wins[-1]) + 1
                dht.commit_lookups(
                    found[j:end], (view, starts[j:end].tolist(), hops[j:end].tolist())
                )
                peers.extend(view.peer(q) for q in stops[wins].tolist())
                walk_hits += int(_np.count_nonzero(codes[wins] == _WALK))
                if results is not None:
                    results.extend(
                        _planned(view, rest[j:end], codes[j:end], stops[j:end], hops[j:end])
                    )
                j = end
                if j == len(found) or len(peers) == need:
                    break
                keep(self._live_trial(rest[j]))
                j += 1
                if len(peers) == need or walk_view() is not view:
                    break  # done, or the ring changed: resolve the rest afresh
            i += j
        return peers, i, walk_hits, successes, classified

    def _plan_walks(self, view, points, found, need):
        """Figure 1 for every resolved trial on ``view``, as arrays.

        Returns ``(codes, starts, stops, hops, certified)``: the outcome
        code (``_UNKNOWN`` where the lookup failed, or past the
        ``need``-th small hit), the first peer's ring position (``-1`` if
        absent), the assigned peer's ring position (``-1`` if none), the
        walk length, and whether ``view`` certifies the trial -- its
        lookup succeeded, its first peer sits in the view and its stop
        hop lies inside that peer's run.
        """
        k = len(found)
        starts = view.positions(found.owner)
        known = (starts >= 0).nonzero()[0]
        codes = _np.full(k, _UNKNOWN, dtype=_np.int8)
        stops = _np.full(k, -1, dtype=_np.int64)
        hops = _np.zeros(k, dtype=_np.int64)
        if known.size:
            codes[known], stops[known], hops[known] = _classify(
                self._windows_for(view, view.gaps),
                view.points,
                starts[known],
                _np.asarray(points, dtype=_np.float64)[known],
                self.params.lam,
                need,
            )
        certified = (starts >= 0) & (view.run[starts] >= hops)
        return codes, starts, stops, hops, certified

    def _live_trial(self, s: float) -> TrialResult:
        """One trial on its own, as the scalar sampler runs it.

        Its lookup goes through the substrate's tolerant batched
        resolver when it has one (the Chord adapters replay and charge
        it, or re-execute it live when the replay predicts a failure),
        else through ``h``; its walk through per-call ``next``.
        """
        dht = self._dht
        resolve = getattr(dht, "resolve_many", None)
        first = None
        try:
            first = resolve([s])[0] if resolve is not None else dht.h(s)
        except PeerUnreachableError:
            pass
        return self._walk_per_call(s, first)

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

    def _draw(self, size: int) -> list[float]:
        """``size`` trial points: carried-over ones first, then fresh draws."""
        pending = self._pending
        if len(pending) >= size:
            points = pending[:size]
            del pending[:size]
            return points
        rand = self._rng.random
        points = pending + [1.0 - rand() for _ in range(size - len(pending))]
        pending.clear()
        return points

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
        ``trials``/``rounds`` count the rejection work committed, and
        ``cost`` is this call's substrate meter delta.  The serving layer
        (:mod:`repro.service`) uses this hook to stamp per-request
        latency without re-deriving batch internals.

        A round classifies all its points but commits -- charges, and
        counts in ``trials`` -- only the trials up to its last needed
        success, in draw order.  The points after it stay queued on the
        engine and open the next round or the next call, so the engine
        consumes the RNG's points exactly as sequential scalar draws do,
        with the same peers and charges.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        before = self._dht.cost.snapshot()
        out: list[PeerRef] = []
        budget = self._max_trials * k
        used = 0
        rounds = 0
        walk_hits = 0
        p_est = min(max(self.params.n_hat * self.params.lam, 1e-4), 1.0)
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
                max(need, int(need / p_est * _ROUND_FACTOR) + 8),
            )
            points = self._draw(round_size)
            rounds += 1
            round_before = self._dht.cost.snapshot() if tracing else None
            peers, taken, hits, successes, classified = self._round(points, need)
            self._pending[:0] = points[taken:]
            used += taken
            walk_hits += hits
            if tracing:
                tracer.on_round(
                    rounds - 1,
                    taken,
                    len(peers),
                    self._dht.cost.snapshot() - round_before,
                )
            if classified:
                p_est = min(max((successes + 1) / (classified + 2), 1e-4), 1.0)
            out.extend(peers)
        return BatchSampleResult(
            peers=tuple(out),
            trials=used,
            rounds=rounds,
            cost=self._dht.cost.snapshot() - before,
            walk_hits=walk_hits,
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


def _planned(view, points, codes, stops, hops) -> list[TrialResult]:
    """The :class:`TrialResult` of each certified trial of a walk plan."""
    return [
        TrialResult(
            s=s,
            outcome=_OUTCOMES[code],
            peer=None if code == _EXHAUSTED else view.peer(q),
            walk_hops=h,
        )
        for s, code, q, h in zip(points, codes.tolist(), stops.tolist(), hops.tolist())
    ]


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
    stop = _np.empty(k, dtype=_np.int64)
    hops = _np.empty(k, dtype=_np.int64)
    if n == 1:
        # A self-successor lap adds 1 - lam > 0 per hop, so T never
        # drops: every walk exhausts the full budget.
        stop.fill(-1)
        hops.fill(budget)
        return stop, hops
    for lo in range(0, k, _WALK_SLAB):
        rows = first[lo : lo + _WALK_SLAB]
        t = windows[rows]
        t[:, 0] += arc[lo : lo + _WALK_SLAB] - lam
        _np.cumsum(t, axis=1, out=t)
        hit = t <= 0.0
        j = hit.argmax(axis=1)
        done = hit[_np.arange(len(rows)), j]
        j += 1
        hops[lo : lo + _WALK_SLAB] = _np.where(done, j, budget)
        stop[lo : lo + _WALK_SLAB] = _np.where(done, (rows + j) % n, -1)
    return stop, hops


def _classify(windows, ring_pts, first, ss, lam, need):
    """Figure 1 for points ``ss`` whose ``h`` sits at ring positions ``first``.

    Returns ``(codes, out_idx, hops)`` arrays: the outcome code, the
    assigned peer's ring position (``-1`` if none) and the walk length
    of each trial.  Every small hit is found, but only the trials before
    the ``need``-th small hit walk: the ``need``-th success lies at or
    before it, so no later trial is committed, and the later trials that
    are not small hits keep the code ``_UNKNOWN``.
    """
    arc = clockwise_distances(ss, ring_pts[first])
    small = arc < lam
    smalls = small.nonzero()[0]
    end = smalls[need - 1] if len(smalls) >= need else len(ss)
    walk = (~small[:end]).nonzero()[0]
    stop, walked = _walk_kernel(windows, len(ring_pts), first[walk], arc[walk], lam)
    codes = _np.where(small, _SMALL, _UNKNOWN)
    codes[walk] = _np.where(stop >= 0, _WALK, _EXHAUSTED)
    out_idx = _np.where(small, first, -1)
    out_idx[walk] = stop
    hops = _np.zeros(len(ss), dtype=_np.int64)
    hops[walk] = walked
    return codes, out_idx, hops


def _check_points(points) -> None:
    """Reject points outside the unit circle ``(0, 1]``, as ``trial`` does."""
    ss = _np.asarray(points, dtype=_np.float64)
    ok = (ss > 0.0) & (ss <= 1.0)  # negated form would let NaN slip through
    if not ok.all():
        bad = ss[~ok][0]
        raise ValueError(f"point {bad!r} is outside the unit circle (0, 1]")


def _kernel_numpy(pts, windows, lam, points, need):
    """Vectorized Figure 1 over all trials against the flat point array.

    ``h`` is a ``searchsorted`` over the sorted points; the walks run
    through :func:`_walk_kernel` (see :func:`_classify` for which walk).
    Outcomes are bit-identical to :meth:`RandomPeerSampler.trial`.
    Points must lie in ``(0, 1]`` (:func:`_check_points`).
    """
    ss = _np.asarray(points, dtype=_np.float64)
    idx = _np.searchsorted(pts, ss, side="left")
    idx %= len(pts)
    return _classify(windows, pts, idx, ss, lam, need)


def _kernel_python(pts, n, lam, budget, points, need):
    """Pure-Python fast path: raw floats and indices, zero allocations
    per hop.  Identical arithmetic to the scalar trial.  Stops after the
    ``need``-th success: nothing past it is committed."""
    codes: list[int] = []
    out_idx: list[int] = []
    hops_list: list[int] = []
    for s in points:
        if need == 0:
            break
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
            need -= 1
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
                    need -= 1
                    break
                i = ni
                cur = npt
        codes.append(code)
        out_idx.append(assigned)
        hops_list.append(taken)
    return codes, out_idx, hops_list
