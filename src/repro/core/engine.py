"""Batch sampling engine: vectorized Choose-Random-Peer.

The scalar :class:`~repro.core.sampler.RandomPeerSampler` pays Python
method-call, dataclass-allocation and metering overhead *per trial*,
which dominates wall-clock long before the algorithm's own
O(1)-trials / O(log n)-latency guarantees do.  :class:`BatchSampler`
runs the identical algorithm over a whole vector of trials at once:

- queued trial points are classified a *block* at a time: their ``h``
  successors are resolved in one pass over the substrate's flat point
  array (``numpy.searchsorted`` when available, else a pure-Python
  ``bisect`` loop), and small-hit classification is a single vectorized
  comparison;
- the clockwise walks run through one *windowed* kernel: each trial's
  row holds the clockwise gaps of the ``walk_budget`` ring positions
  after its first peer, read in one gather, and a ``cumsum`` along the
  hop axis finds the first hop where ``T <= 0`` -- no
  :class:`~repro.dht.api.PeerRef` or
  :class:`~repro.core.sampler.TrialResult` allocation per hop;
- only the walks that can end at a peer run at all: by Theorem 6 a
  non-small trial wins only if its arc is at most the largest threshold
  along its walk, which the engine keeps per ring position (``reach``,
  built with the windows once per ring state and widened by a rounding
  bound); every other non-small trial is exhausted after the full
  budget without a gather;
- by Theorem 6 a trial's outcome is a fixed function of its point, the
  ring and the parameters, so a block stays classified for as long as
  the ring state and the parameters it was classified against are
  unchanged, and later calls commit from it without classifying again;
- each call commits the block from its cursor up to its last needed
  success, in draw order: the cost meter is charged via
  :meth:`~repro.dht.api.CostMeter.charge_bulk` for exactly the trials a
  sequential scalar loop would have run, read from the block's running
  totals (plain lists: two reads per column), and its peers are a slice
  of the block's list of certified successes.  The block's uncommitted
  points stay queued for the next call, so the engine reads the RNG's
  point stream exactly as that loop does.

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
certified prefix (see :meth:`BatchSampler._commit`); every other trial
runs on its own through the per-call path.  The scalar sampler's draws
are this engine at ``k = 1``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate

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

#: Cap on the trial points of one classified block (bounds peak memory).
_MAX_ROUND = 1 << 18

#: A fresh block holds about this many times the expected trials of the
#: call's outstanding draws.  Only the trials up to the last needed
#: success are committed, so a larger block costs classification CPU,
#: never charged work.
_ROUND_FACTOR = 2.0

#: Trials per slab of the walk kernel.  A slab's scratch is
#: ``_WALK_SLAB * walk_budget`` doubles, so the kernel's memory stays
#: bounded however large a block is.  It is also the size to which a
#: block on an unchanged ring grows (see :meth:`BatchSampler._refill`),
#: and the most uncommitted rows a block keeps classified between calls.
_WALK_SLAB = 2048

# Outcome codes used inside the classification kernels (cheap ints in
# the hot loop; mapped to TrialOutcome only at materialization time).
# A code below _EXHAUSTED is a success; _UNKNOWN marks a trial whose
# outcome was not computed (its lookup failed).
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
    ``rounds`` counts the call's commit chunks: runs of trials charged
    in one meter update -- a slice of a classified block, or one trial
    run on its own.  It counts no classification: a call served from a
    block classified by an earlier call commits one chunk and classifies
    nothing.
    """

    peers: tuple[PeerRef, ...]
    trials: int
    rounds: int
    cost: CostSnapshot
    walk_hits: int = 0


class _Block:
    """Queued trial points, classified against one ring state.

    Rows are trials in draw order.  ``key`` names the ring state (its
    first element by identity, the rest by value; see
    :meth:`BatchSampler._ring_key`) and ``params`` the parameters the
    rows were classified with.  ``cursor`` is the first row no call has
    committed.  ``wins`` lists the rows of the certified successes,
    ``win_peers`` their peers and ``cum_walks`` a running count of the
    walk hits among them; ``bad`` lists the uncertified rows (a failed
    lookup, or a walk that leaves its first peer's run), which run on
    their own.  ``w`` and ``b`` index the first entry of ``wins`` and
    ``bad`` at or after ``cursor``.  On the Chord path ``found`` holds
    the rows' uncharged lookups and ``starts`` their first ring
    positions.

    What a commit reads is kept as plain lists of running totals, one
    entry per row boundary, so a chunk's charges are two reads per
    column: ``cum_hops`` of the walk lengths and, on the Chord path,
    ``cum_lookups`` of the lookups' messages, RPCs, timeouts and
    latency.  Integer totals are exact; the latency total is kept only
    while every latency is a whole number (integer delays, the default),
    when every partial sum is exact in a double, and is None otherwise
    (a chunk then sums its rows' latencies).
    """

    __slots__ = (
        "key", "params", "points", "codes", "out", "hops", "peer", "found",
        "starts", "wins", "win_peers", "cum_walks", "cum_hops", "cum_lookups",
        "bad", "successes", "classified", "cursor", "w", "b",
    )

    def __init__(self, key, params, points, codes, out, hops, peer,
                 found=None, starts=None, certified=None):
        self.key = key
        self.params = params
        self.points = points
        self.codes = codes
        self.out = out
        self.hops = hops
        self.peer = peer
        self.found = found
        self.starts = starts
        self.cursor = self.w = self.b = 0
        if _np is None:
            # The pure-Python lane classifies only bulk substrates, whose
            # trials are all certified.
            self.wins = [j for j, code in enumerate(codes) if code < _EXHAUSTED]
            self.win_peers = [peer(out[j]) for j in self.wins]
            self.cum_walks = [0, *accumulate(int(codes[j] == _WALK) for j in self.wins)]
            self.bad = []
            self.successes = len(self.wins)
            self.classified = len(codes)
        else:
            np = _np
            won = codes < _EXHAUSTED
            self.successes = int(np.count_nonzero(won))
            self.classified = int(np.count_nonzero(codes != _UNKNOWN))
            if certified is not None:
                won &= certified
                self.bad = (~certified).nonzero()[0].tolist()
            else:
                self.bad = []
            wins = won.nonzero()[0]
            self.wins = wins.tolist()
            self.win_peers = [peer(q) for q in out[wins].tolist()]
            self.cum_walks = _running(codes[wins] == _WALK)
        self.cum_hops = _running(hops)
        self.cum_lookups = None
        if found is not None:
            latency = found.latency
            whole = (
                all(float(x).is_integer() for x in latency)
                if _np is None
                else bool((latency == _np.floor(latency)).all())
            )
            self.cum_lookups = (
                _running(found.messages),
                _running(found.rpc_calls),
                _running(found.rpc_timeouts),
                _running(latency) if whole else None,
            )

    def lookup_totals(self, lo: int, hi: int) -> tuple[int, float, int, int]:
        """``(messages, latency, rpc_calls, rpc_timeouts)`` of rows ``[lo, hi)``."""
        messages, calls, timeouts, latency = self.cum_lookups
        return (
            messages[hi] - messages[lo],
            latency[hi] - latency[lo]
            if latency is not None
            else self.found[lo:hi].totals()[1],
            calls[hi] - calls[lo],
            timeouts[hi] - timeouts[lo],
        )

    def results(self, lo: int, hi: int) -> list[TrialResult]:
        """The :class:`TrialResult` of each certified row in ``[lo, hi)``."""
        codes, out, hops = self.codes[lo:hi], self.out[lo:hi], self.hops[lo:hi]
        if _np is not None:
            codes, out, hops = codes.tolist(), out.tolist(), hops.tolist()
        peer = self.peer
        return [
            TrialResult(
                s=s,
                outcome=_OUTCOMES[code],
                peer=None if code == _EXHAUSTED else peer(q),
                walk_hops=h,
            )
            for s, code, q, h in zip(self.points[lo:hi], codes, out, hops)
        ]


def _running(column) -> list:
    """Running totals of a column as a plain list, from 0: entry ``j``
    is the sum of the first ``j`` values, added in order."""
    if _np is None:
        return [0, *accumulate(column)]
    totals = _np.zeros(len(column) + 1, dtype=_np.result_type(column.dtype, _np.int64))
    _np.cumsum(column, out=totals[1:])
    return totals.tolist()


def _same_ring(a, b) -> bool:
    """Whether two ring keys name one state: the ring object by identity,
    the plain values after it by equality."""
    return a is not None and b is not None and a[0] is b[0] and a[1:] == b[1:]


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
        if max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        self._dht = dht
        self._rng = rng if rng is not None else random.Random()
        #: Optional span sink (:class:`repro.obs.tracer.Tracer`); the
        #: engine reports per-chunk trial/success/cost attribution while
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
        self._max_trials = max_trials
        self._bulk = isinstance(dht, BulkDHT)
        #: Trials lost to transient peer unreachability (routing holes,
        #: crashed walk hops) on the per-call fallback path.  Each such
        #: trial is treated exactly like an EXHAUSTED outcome -- retried
        #: with fresh randomness by the rejection loop -- so churn shows
        #: up as extra trials, never as a leaked substrate exception.
        self.stale_trials = 0
        #: ``(ring, params, windows, reach)`` of the last walk-kernel
        #: input (see :meth:`_windows_for`).
        self._windows = None
        #: The classified block the next call commits from (see
        #: :meth:`sample_many_attributed`); its uncommitted points come
        #: first in draw order.
        self._block: _Block | None = None
        #: Drawn trial points after the block's, unclassified, in draw
        #: order.  A point is independent of every trial before it, so
        #: it is classified against the ring as it stands when its block
        #: is classified.
        self._pending: list[float] = []

    @property
    def dht(self) -> DHT:
        """The substrate this engine samples over (read-only)."""
        return self._dht

    def warm(self) -> bool:
        """Pre-build the substrate's batch-routing caches and the engine's
        walk windows.

        Delegates to the substrate's ``warm_lockstep`` hook (the Chord
        adapters build their ring snapshot, walk view and route table),
        then builds the walk kernel's windows and reach for the ring the
        next block would be classified against (:meth:`_windows_for`).
        Returns the hook's answer; False on substrates without one.
        Serving shards call this at set-up and right after a
        churn-recovery :meth:`refresh`, so the next dispatch does not pay
        these builds on the request path.
        """
        warm = getattr(self._dht, "warm_lockstep", None)
        engaged = bool(warm()) if warm is not None else False
        key = self._ring_key() if _np is not None else None
        if key is not None:
            self._ring_windows(key[0])
        return engaged

    def refresh(self, n_hat: float | None = None) -> SamplerParams:
        """Re-derive parameters from a fresh size estimate (see
        :meth:`RandomPeerSampler.refresh <repro.core.sampler.RandomPeerSampler.refresh>`;
        serving shards call this when re-admitting after churn failures).
        Queued trial points are kept: a point does not depend on
        ``n_hat`` (their classification is dropped with the old
        parameters)."""
        if n_hat is None:
            n_hat = estimate_n(self._dht, c1=self._c1).n_hat
        self.params = SamplerParams.from_estimate(
            n_hat, gamma1=self._gamma1, lambda_slack=self._lambda_slack
        )
        return self.params

    # -- classified blocks --------------------------------------------------

    def _windows_for(self, ring, gaps=None):
        """The walk kernel's step rows for ``ring`` under the current
        parameters, and each ring position's reach.

        ``ring`` identifies one ring state: the ideal substrate's point
        array (whose gaps are derived here) or a Chord walk view (which
        carries its ``gaps``).  Returns ``(windows, reach)``
        (:func:`_walk_windows`).  Both are rebuilt only when the ring
        state or the parameters change, never once per block; the cache
        holds one ring state.
        """
        params = self.params
        cached = self._windows
        if cached is None or cached[0] is not ring or cached[1] is not params:
            if gaps is None:
                gaps = ring_gaps(ring)
            cached = self._windows = (
                ring, params, *_walk_windows(gaps, params.lam, params.walk_budget)
            )
        return cached[2], cached[3]

    def _ring_windows(self, ring):
        """:meth:`_windows_for` the first element of a ring key: the ideal
        substrate's point array or a Chord walk view."""
        if self._bulk:
            return self._windows_for(_np.asarray(ring, dtype=_np.float64))
        return self._windows_for(ring, ring.gaps)

    def _ring_key(self):
        """The ring state a block would be classified against, or None
        when trials must run one at a time.

        The ideal substrate's key is its point array; a Chord adapter's
        is its ``replay_key()`` (walk view, entry peer, lookup mode,
        replay costs).  Kademlia and refused adapters have none.
        """
        if self._bulk:
            return (self._dht.points_array(),)
        replay = getattr(self._dht, "replay_key", None) if _np is not None else None
        return replay() if replay is not None else None

    def _is_current(self, block: _Block) -> bool:
        """Whether nothing ``block``'s classification read has changed."""
        return block.params is self.params and _same_ring(block.key, self._ring_key())

    def _classify_block(self, points: list[float], key) -> _Block | None:
        """Run Figure 1 on ``points`` against the ring ``key`` names, uncharged.

        Returns a block over all of them, or over the prefix a Chord
        resolve stopped at (an out-of-circle point); None when the
        substrate resolves none of them without side effects.
        """
        params = self.params
        dht = self._dht
        if self._bulk:
            pts = dht.points_array()
            peer = dht.successor_of_index
            if _np is None:
                codes, out, hops = _kernel_python(
                    pts, len(pts), params.lam, params.walk_budget, points
                )
                return _Block(key, params, points, codes, out, hops, peer)
            _check_points(points)
            pts = _np.asarray(pts, dtype=_np.float64)
            windows, reach = self._windows_for(pts)
            codes, out, hops = _kernel_numpy(pts, windows, reach, params.lam, points)
            return _Block(key, params, points, codes, out, hops, peer)
        found = dht.resolve_many(points, commit=False)
        if not found:
            return None
        key = self._ring_key()  # read after the resolve: it may fail a dead entry over
        view = key[0]
        points = points[: len(found)]
        codes, starts, out, hops, certified = self._plan_walks(view, points, found)
        return _Block(
            key, params, points, codes, out, hops, view.peer,
            found=found, starts=starts, certified=certified,
        )

    def _plan_walks(self, view, points, found):
        """Figure 1 for every resolved trial on ``view``, as arrays.

        Returns ``(codes, starts, stops, hops, certified)``: the outcome
        code (``_UNKNOWN`` where the lookup failed), the first peer's
        ring position (``-1`` if absent), the assigned peer's ring
        position (``-1`` if none), the walk length, and whether ``view``
        certifies the trial -- its lookup succeeded, its first peer sits
        in the view and its stop hop lies inside that peer's run.
        """
        k = len(found)
        starts = view.positions(found.owner)
        known = (starts >= 0).nonzero()[0]
        codes = _np.full(k, _UNKNOWN, dtype=_np.int8)
        stops = _np.full(k, -1, dtype=_np.int64)
        hops = _np.zeros(k, dtype=_np.int64)
        if known.size:
            codes[known], stops[known], hops[known] = _classify(
                *self._ring_windows(view),
                view.points,
                starts[known],
                _np.asarray(points, dtype=_np.float64)[known],
                self.params.lam,
            )
        certified = (starts >= 0) & (view.run[starts] >= hops)
        return codes, starts, stops, hops, certified

    def _refill(self, need: int, p: float) -> _Block | None:
        """Classify the next block of queued points; None when trials must
        run one at a time.

        The current block's uncommitted points go back to the front of
        the queue first.  A block holds ``max(need, int(need / p * 2.0)
        + 8)`` points, the rejection round that would serve ``need``
        draws at success rate ``p``; after a block was used up on a ring
        state that still holds, the next one on it is twice as large, up
        to one walk-kernel slab, so a static ring is classified about
        once per ``_WALK_SLAB`` trials however small the calls are.  At
        most ``_MAX_ROUND`` points either way.
        """
        old = self._release()
        key = self._ring_key()
        if key is None:
            return None
        size = max(need, int(need / p * _ROUND_FACTOR) + 8)
        if (
            old is not None
            and old.cursor == len(old.points)
            and old.params is self.params
            and _same_ring(old.key, key)
        ):
            size = max(size, min(2 * len(old.points), _WALK_SLAB))
        points = self._draw(min(size, _MAX_ROUND))
        block = self._classify_block(points, key)
        covered = len(block.points) if block is not None else 0
        self._pending[:0] = points[covered:]
        if not covered:
            return None
        self._block = block
        return block

    def _release(self) -> _Block | None:
        """Drop the block's classification and return the block; its
        uncommitted points go back to the front of the queue, in order."""
        old = self._block
        self._block = None
        if old is not None:
            self._pending[:0] = old.points[old.cursor :]
        return old

    def _commit(self, block: _Block, need: int, limit: int, results):
        """Commit one chunk of ``block`` at its cursor.

        The chunk is the longest run of certified rows that stops at the
        ``need``-th success, after ``limit`` rows, or before the next
        uncertified row, charged in one update from the block's running
        totals: on the bulk path at the unit costs, on the Chord path
        through one ``commit_lookups`` call with the rows' replayed
        walks.  An uncertified row at the
        cursor runs on its own instead (:meth:`_commit_one`); the caller
        re-checks the block before committing more, since that trial may
        have changed the ring.  Returns ``(taken, peers, walk_hits)``;
        ``results``, when a list, receives each committed trial's
        :class:`~repro.core.sampler.TrialResult`.
        """
        lo = block.cursor
        bad = block.bad
        hi = bad[block.b] if block.b < len(bad) else len(block.points)
        if hi == lo:
            block.cursor += 1
            block.b += 1
            return self._commit_one(block.points[lo], results)
        hi = min(hi, lo + limit)
        wins = block.wins
        w = block.w
        last = w + need - 1
        if last < len(wins) and wins[last] < hi:
            hi = wins[last] + 1
            stop = last + 1
        else:
            stop = bisect_left(wins, hi, w)
        cum_hops = block.cum_hops
        steps = cum_hops[hi] - cum_hops[lo]
        if block.found is None:
            self._charge(hi - lo, steps)
        else:
            self._dht.commit_lookups(
                block.found, lo, hi, (*block.lookup_totals(lo, hi), steps),
                (block.key[0], block.starts, block.hops),
            )
        if results is not None:
            results.extend(block.results(lo, hi))
        block.cursor = hi
        block.w = stop
        return hi - lo, block.win_peers[w:stop], block.cum_walks[stop] - block.cum_walks[w]

    def _commit_one(self, s: float, results):
        """One trial on its own (:meth:`_live_trial`), as a chunk."""
        result = self._live_trial(s)
        if results is not None:
            results.append(result)
        if result.peer is None:
            return 1, [], 0
        return 1, [result.peer], int(result.outcome is TrialOutcome.WALK_HIT)

    def _charge(self, trials: int, hops: int) -> None:
        """Charge ``trials`` ``h`` calls and ``hops`` ``next`` calls at unit cost."""
        hm, hl, nm, nl = self._dht.bulk_op_costs()
        self._dht.cost.charge_bulk(
            h_calls=trials,
            next_calls=hops,
            messages=trials * hm + hops * nm,
            latency=trials * hl + hops * nl,
        )

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
        """``size`` trial points: queued ones first, then fresh draws."""
        pending = self._pending
        if len(pending) >= size:
            points = pending[:size]
            del pending[:size]
            return points
        rand = self._rng.random
        points = pending + [1.0 - rand() for _ in range(size - len(pending))]
        pending.clear()
        return points

    # -- public API --------------------------------------------------------

    def trial_many(self, points: Sequence[float]) -> list[TrialResult]:
        """Run Figure 1 once per point (no retries), batch-classified.

        Result ``j`` equals ``RandomPeerSampler.trial(points[j])`` for a
        sampler sharing this engine's parameters -- same peer, same
        :class:`~repro.core.sampler.TrialOutcome`, same walk length --
        and the charges equal those trials' in total.  The points are
        classified as one block, outside the engine's queue, and all of
        it is committed (a ring change after a trial run on its own
        re-classifies the rest).
        """
        points = list(points)
        results: list[TrialResult] = []
        i = 0
        while i < len(points):
            key = self._ring_key()
            block = self._classify_block(points[i:], key) if key is not None else None
            if block is None:
                self._commit_one(points[i], results)
                i += 1
                continue
            rows = len(block.points)
            while True:
                self._commit(block, rows, rows, results)
                if block.cursor == rows or not self._is_current(block):
                    break
            i += block.cursor
        return results

    def sample_many(self, k: int) -> list[PeerRef]:
        """Draw ``k`` independent uniform samples (with replacement).

        Trials come from classified blocks sized ``need / p`` where
        ``p`` is the success-rate estimate (seeded from
        ``n_hat * lambda``, then updated from observation), so the
        expected number of classifications per call is O(1).  The total
        trial budget is ``max_trials * k``; exceeding it raises
        :class:`~repro.core.errors.SamplingError`, mirroring the scalar
        sampler's per-sample cap.
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

        The call commits the engine's classified block from its cursor
        -- charges, and counts in ``trials``, only the trials up to its
        last needed success, in draw order -- and classifies a new block
        from the queue when the block is used up, or when the ring state
        or the parameters it was classified against have changed (its
        points then stay queued, unclassified).  The engine therefore
        consumes the RNG's points exactly as sequential scalar draws do,
        with the same peers and charges.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        cost = self._dht.cost
        before = cost.snapshot()
        out: list[PeerRef] = []
        budget = self._max_trials * k
        used = 0
        chunks = 0
        walk_hits = 0
        p_est = min(max(self.params.n_hat * self.params.lam, 1e-4), 1.0)
        # Chunk spans are recorded only while a sampled batch is being
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
            block = self._block
            if block is None or block.cursor == len(block.points) or not self._is_current(block):
                block = self._refill(need, p_est)
                if block is not None and block.classified:
                    p_est = min(max((block.successes + 1) / (block.classified + 2), 1e-4), 1.0)
            chunk_before = cost.snapshot() if tracing else None
            if block is None:
                taken, peers, hits = self._commit_one(self._draw(1)[0], None)
            else:
                taken, peers, hits = self._commit(block, need, budget - used, None)
            used += taken
            walk_hits += hits
            if tracing:
                tracer.on_round(chunks, taken, len(peers), cost.snapshot() - chunk_before)
            chunks += 1
            out.extend(peers)
        block = self._block
        if block is not None and len(block.points) - block.cursor > _WALK_SLAB:
            # What a call leaves classified is at most one slab's block;
            # a large call's rest stays queued as bare points.
            self._release()
        return BatchSampleResult(
            peers=tuple(out),
            trials=used,
            rounds=chunks,
            cost=cost.snapshot() - before,
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


def _walk_windows(gaps, lam, budget):
    """The walk kernel's input for one ring state: ``(windows, reach)``.

    Row ``p`` of ``windows`` holds ``gap - lam`` for the ``budget`` hops
    a walk from ring position ``p`` takes: a read-only sliding-window
    view over the gaps tiled far enough that every row runs ``budget``
    positions clockwise, lapping the ring as often as a budget of ``n``
    or more requires.  ``gap - lam`` is the scalar loop's
    ``step - lam``, computed once per ring state.  ``reach[p]`` bounds
    the arcs from which a walk starting at ``p`` can end at a peer
    (:func:`_reach`, over the same tiled steps).
    """
    n = len(gaps)
    span = n + budget - 1
    laps = -(-span // n)
    steps = _np.tile(gaps, laps)[:span] - lam
    windows = _np.lib.stride_tricks.sliding_window_view(steps, budget)
    return windows, _reach(steps, n, lam, budget, laps)


def _reach(steps, n, lam, budget, laps):
    """The largest arc from which a walk from each ring position can end
    at a peer, widened by a bound on rounding.

    With ``C_k(p)`` the sum of the first ``k`` entries of window row
    ``p`` (the ``steps[p : p + budget]``), a walk from ``p`` with arc
    ``a >= lam`` stops at hop ``k`` when ``T_k = (a - lam) + C_k(p) <= 0``,
    so it can end at a peer only if ``a <= lam - min_k C_k(p)``: the
    largest of Theorem 6's thresholds ``(k+1) lam - D_k`` along the walk
    (:func:`repro.core.assignment.compute_assignment` sweeps the same
    running maximum).  Every other non-small trial exhausts its budget.

    O(n + budget) array work: prefix sums ``P`` of ``steps``, so that
    ``C_k(p) = P[p + k] - P[p]``, then a sliding-window minimum of width
    ``budget`` over ``P[1:]`` (van Herk / Gil-Werman: running minima
    forwards and backwards inside blocks of ``budget``, +inf padding the
    last block; two windows' minima are one ``minimum``).

    Margin.  With ``u = 2**-53``, ``span = n + budget - 1`` steps
    ``s_i`` and ``S = sum |s_i|``, a floating-point sum of ``m``
    additions errs from its exact value by at most ``m u`` (to first
    order) times the sum of its terms' magnitudes:

    - prefix sums accumulate in order over at most ``span`` terms, so
      ``|P^[j] - P[j]| <= span u S``, and the computed
      ``P^[p + k] - P^[p]`` errs from ``C_k(p)`` by at most
      ``(2 span + 1) u S``; the minimum is exact, and ``lam - min`` and
      adding the margin round once each, by at most ``u (S + 1)``;
    - a walk adds ``a - lam`` (itself rounded, by at most ``u``; ``a <
      1``) and then up to ``budget`` row entries, in order, so
      ``|T^_k - T_k| <= u + budget u (S + 1)``.

    So a walk the kernel sees end (``T^_k <= 0``) has ``a`` at most the
    computed ``lam - min_k C_k(p)`` plus ``(2 span + budget + 4) u
    (S + 2) = (2 n + 3 budget + 2) u (S + 2)``, which the margin
    ``4 (n + 2 budget) u (S + 2)`` covers more than 1.7 times over for
    every ``n, budget >= 1`` (the slack absorbs the second-order terms).
    ``S`` is bounded without a pass over the steps: ``|gap - lam| <=
    gap + lam`` and one lap's gaps sum to 1 up to ``2 u``, so
    ``S <= laps + span lam`` up to a relative ``3 u``.  At ``n = 1e5``
    the margin is ~1e-10 against ``lam`` ~ 4e-7.  The filter may send a
    losing trial to the kernel; it never skips a winning one.
    """
    np = _np
    span = len(steps)
    prefix = np.zeros(span + 1)
    np.cumsum(steps, out=prefix[1:])
    blocks = -(-span // budget)
    padded = np.full(blocks * budget, np.inf)
    padded[:span] = prefix[1:]
    padded = padded.reshape(blocks, budget)
    ahead = np.minimum.accumulate(padded, axis=1).ravel()
    backwards = padded[:, ::-1]
    np.minimum.accumulate(backwards, axis=1, out=backwards)
    behind = padded.ravel()
    # Row p's window is P[p + 1 .. p + budget], padded[p .. p + budget - 1].
    low = np.minimum(behind[:n], ahead[budget - 1 : budget - 1 + n])
    low -= prefix[:n]
    np.subtract(lam, low, out=low)
    low += 4.0 * (n + 2 * budget) * 2.0**-53 * (laps + span * lam + 2.0)
    return low


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


def _classify(windows, reach, ring_pts, first, ss, lam):
    """Figure 1 for points ``ss`` whose ``h`` sits at ring positions ``first``.

    Only the non-small trials whose arc is at most their first
    position's ``reach`` can end at a peer, so only those walk through
    :func:`_walk_kernel`; every other non-small trial is exhausted after
    the full budget.  Returns ``(codes, out_idx, hops)`` arrays: the
    outcome code, the assigned peer's ring position (``-1`` if none) and
    the walk length of each trial.
    """
    arc = clockwise_distances(ss, ring_pts[first])
    small = arc < lam
    walk = (~small & (arc <= reach[first])).nonzero()[0]
    stop, walked = _walk_kernel(windows, len(ring_pts), first[walk], arc[walk], lam)
    codes = _np.where(small, _SMALL, _EXHAUSTED)
    codes[walk] = _np.where(stop >= 0, _WALK, _EXHAUSTED)
    out_idx = _np.where(small, first, -1)
    out_idx[walk] = stop
    hops = _np.where(small, 0, windows.shape[1])
    hops[walk] = walked
    return codes, out_idx, hops


def _check_points(points) -> None:
    """Reject points outside the unit circle ``(0, 1]``, as ``trial`` does."""
    ss = _np.asarray(points, dtype=_np.float64)
    ok = (ss > 0.0) & (ss <= 1.0)  # negated form would let NaN slip through
    if not ok.all():
        bad = ss[~ok][0]
        raise ValueError(f"point {bad!r} is outside the unit circle (0, 1]")


def _kernel_numpy(pts, windows, reach, lam, points):
    """Vectorized Figure 1 over all trials against the flat point array.

    ``h`` is a ``searchsorted`` over the sorted points; the walks run
    through :func:`_classify`.  Outcomes are bit-identical to
    :meth:`RandomPeerSampler.trial`.  Points must lie in ``(0, 1]``
    (:func:`_check_points`).
    """
    ss = _np.asarray(points, dtype=_np.float64)
    idx = _np.searchsorted(pts, ss, side="left")
    idx %= len(pts)
    return _classify(windows, reach, pts, idx, ss, lam)


def _kernel_python(pts, n, lam, budget, points):
    """Pure-Python fast path: raw floats and indices, zero allocations
    per hop.  Identical arithmetic to the scalar trial."""
    codes: list[int] = []
    out_idx: list[int] = []
    hops_list: list[int] = []
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
    return codes, out_idx, hops_list
