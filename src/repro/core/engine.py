"""Batch sampling engine: vectorized Choose-Random-Peer.

The scalar :class:`~repro.core.sampler.RandomPeerSampler` pays Python
method-call, dataclass-allocation and metering overhead *per trial*,
which dominates wall-clock long before the algorithm's own
O(1)-trials / O(log n)-latency guarantees do.  :class:`BatchSampler`
runs the identical algorithm over a whole vector of trials at once:

- queued trial points are classified a *block* at a time: their ``h``
  successors are resolved in one ``numpy.searchsorted`` over the
  substrate's flat point array, and small-hit classification is a single
  vectorized comparison;
- the clockwise walks run through one *windowed* kernel: each trial's
  row holds the clockwise gaps of the ring positions after its first
  peer, and in-order sums along the hop axis find the first hop where
  ``T <= 0`` (a hit) or where ``T`` exceeds the cut for the hops left
  (:attr:`~repro.core.sampler.SamplerParams.cuts`), as the scalar walk
  stops -- no :class:`~repro.dht.api.PeerRef` or
  :class:`~repro.core.sampler.TrialResult` allocation per hop.  A walk
  is cut after about three hops, so a narrow first pass of ``_SHORT``
  hops ends almost every row, and only the rest are gathered at full
  width;
- by Theorem 6 a trial's outcome is a fixed function of its point, the
  ring and the parameters, so a block stays classified for as long as
  the ring state and the parameters it was classified against are
  unchanged, and later calls commit from it without classifying again;
- each call commits the block from its cursor up to its last needed
  success, in draw order: the cost meter is charged via
  :meth:`~repro.dht.api.CostMeter.charge_bulk` for exactly the trials a
  sequential scalar loop would have run, read from the block's running
  totals (two reads per column), and its peers are a slice of the
  block's list of certified successes.  A one-draw call, which is what
  a served request runs, commits the rows up to the next certified win:
  it runs no bisect, slices out the one peer and takes its cost as one
  delta of the meter's fields.  The block's uncommitted points
  stay queued for the next call, so the engine reads the RNG's point
  stream exactly as that loop does; a block's fresh points are drawn in
  bulk (:func:`_fresh_points`), with the loop's values and end state.

Every float operation matches the scalar path's expression tree
exactly (the column adds and ``cumsum`` add in order, so they reproduce
the scalar ``t += step - lam``), so for the same trial points the engine and
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

import math
import random
from bisect import bisect_left
from collections.abc import Sequence
from typing import NamedTuple

import numpy as _np

from ..dht.api import (
    DHT,
    BulkDHT,
    CostSnapshot,
    PeerRef,
    PeerUnreachableError,
)
from .errors import SamplingError
from .estimate import DEFAULT_C1, estimate_n
from .intervals import clockwise_distances, ring_gaps
from .sampler import (
    GAMMA1,
    LAMBDA_SLACK,
    SamplerParams,
    TrialOutcome,
    TrialResult,
    _trial_from_first,
)

__all__ = ["BatchSampler", "BatchSampleResult"]

#: Cap on the trial points of one classified block (bounds peak memory).
_MAX_ROUND = 1 << 18

#: A fresh block holds the expected trials of the call's outstanding
#: draws plus this many standard deviations of that count, and at most
#: ``_ROUND_FACTOR`` times the expected trials (see :func:`_round_size`).
#: Only the trials up to the last needed success are committed, so a
#: larger block costs classification CPU, never charged work.
_ROUND_SIGMAS = 3.0
_ROUND_FACTOR = 2.0

#: Fewest fresh trial points read in one ``getrandbits`` call
#: (:func:`_fresh_points`); fewer run the ``random()`` loop, which costs
#: less there.  On a 2-vCPU x86-64 VM the loop into an array took 1.0 us
#: for one point and 210 us for 2,048, the decode 9 us and 59 us; they
#: broke even at about 100 points.
_BULK_DRAW = 128

#: Trials per slab of the walk kernel.  A slab's scratch is at most
#: ``_WALK_SLAB * walk_budget`` doubles, so the kernel's memory stays
#: bounded however large a block is.  It is also the size to which a
#: block on an unchanged ring grows (see :meth:`BatchSampler._refill`),
#: and the most uncommitted rows a block keeps classified between calls.
_WALK_SLAB = 2048

#: Hops of the walk kernel's narrow first pass.  At the paper's
#: ``lambda`` a walk is cut after about three hops, and about one in 200
#: outlives the pass.
_SHORT = 8

# Outcome codes used inside the classification kernels (cheap ints in
# the hot loop; mapped to TrialOutcome only at materialization time).
# A code below _EXHAUSTED is a success; _UNKNOWN marks a trial whose
# outcome was not computed (its lookup failed).
_SMALL, _WALK, _EXHAUSTED, _UNKNOWN = 0, 1, 2, 3
_OUTCOMES = (TrialOutcome.SMALL_HIT, TrialOutcome.WALK_HIT, TrialOutcome.EXHAUSTED)

#: An empty queue of trial points.
_NO_POINTS = _np.empty(0, dtype=_np.float64)

# What _fresh_points decodes: random.Random's own methods.
_BASE_RANDOM = random.Random.random
_BASE_GETRANDBITS = random.Random.getrandbits


class BatchSampleResult(NamedTuple):
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

    The serving layer's batch path uses this record as its
    :class:`~repro.service.dispatch.Execution` without copying it: one
    call is one dispatch, so ``dispatches`` is 1.
    """

    peers: tuple[PeerRef, ...]
    trials: int
    rounds: int
    cost: CostSnapshot
    walk_hits: int = 0

    dispatches = 1


class _Block:
    """Queued trial points, classified against one ring state.

    Rows are trials in draw order; ``points`` is a float array of
    ``rows`` points.  ``key`` names the ring state (its first element by
    identity, the rest by value; see :meth:`BatchSampler._ring_key`) and
    ``params`` the parameters the rows were classified with.  ``peers``
    maps an array of ring positions to their
    :class:`~repro.dht.api.PeerRef` handles, in order.  ``cursor`` is the first row no call has committed.  ``wins``
    lists the rows of the certified successes, ``win_peers`` their peers
    and ``cum_walks`` a running count of the walk hits among them;
    ``bad`` lists the uncertified rows (a failed lookup, or a walk that
    leaves its first peer's run), which run on their own.  ``w`` and
    ``b`` index the first entry of ``wins`` and ``bad`` at or after
    ``cursor``.  On the Chord path ``found`` holds the rows' uncharged
    lookups and ``starts`` their first ring positions.

    What a commit reads is kept as running totals, one entry per row
    boundary, so a chunk's charges are two reads per column (each column
    is read through a ``memoryview``, which indexes to a Python number in
    about half the time of ``.item``; none is converted to a list):
    ``cum_hops`` of the walk lengths and, on the Chord path,
    ``cum_lookups`` of the lookups' messages, RPCs, timeouts and
    latency.  Integer totals are exact; the latency
    total is kept only while every latency is a whole number (integer
    delays, the default), when every partial sum is exact in a double,
    and is None otherwise (a chunk then sums its rows' latencies).
    """

    __slots__ = (
        "key", "params", "points", "codes", "out", "hops", "peers", "found",
        "starts", "wins", "win_peers", "cum_walks", "cum_hops", "cum_lookups",
        "bad", "successes", "classified", "rows", "cursor", "w", "b",
    )

    def __init__(self, key, params, points, codes, out, hops, peers,
                 found=None, starts=None, certified=None):
        self.key = key
        self.params = params
        self.points = points
        self.codes = codes
        self.out = out
        self.hops = hops
        self.peers = peers
        self.found = found
        self.starts = starts
        self.rows = len(points)
        self.cursor = self.w = self.b = 0
        won = codes < _EXHAUSTED
        self.successes = int(_np.count_nonzero(won))
        self.classified = int(_np.count_nonzero(codes != _UNKNOWN))
        if certified is not None:
            won &= certified
            self.bad = (~certified).nonzero()[0].tolist()
        else:
            self.bad = []
        wins = won.nonzero()[0]
        self.wins = wins.tolist()
        self.win_peers = peers(out[wins]) if len(wins) else []
        self.cum_walks = _running(codes[wins] == _WALK)
        self.cum_hops = _running(hops)
        self.cum_lookups = None
        if found is not None:
            latency = found.latency
            whole = bool((latency == _np.floor(latency)).all())
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
            latency[hi] - latency[lo] if latency is not None else self.found[lo:hi].totals()[1],
            calls[hi] - calls[lo],
            timeouts[hi] - timeouts[lo],
        )

    def results(self, lo: int, hi: int) -> list[TrialResult]:
        """The :class:`TrialResult` of each certified row in ``[lo, hi)``."""
        codes = self.codes[lo:hi]
        peers = iter(self.peers(self.out[lo:hi][codes != _EXHAUSTED]))
        return [
            TrialResult(
                s=s,
                outcome=_OUTCOMES[code],
                peer=None if code == _EXHAUSTED else next(peers),
                walk_hops=h,
            )
            for s, code, h in zip(
                self.points[lo:hi].tolist(), codes.tolist(), self.hops[lo:hi].tolist()
            )
        ]


def _running(column):
    """Running totals of a column, from 0, as a ``memoryview``: entry
    ``j`` is the sum of the first ``j`` values, added in order."""
    totals = _np.zeros(len(column) + 1, dtype=_np.result_type(column.dtype, _np.int64))
    _np.cumsum(column, out=totals[1:])
    return memoryview(totals)


def _same_ring(a, b) -> bool:
    """Whether two ring keys name one state: the ring object by identity,
    the plain values after it by equality.  A key object is its own
    state (an adapter hands back the same key while nothing changed)."""
    if a is b:
        return a is not None
    return a is not None and b is not None and a[0] is b[0] and a[1:] == b[1:]


def _round_size(need: int, p: float) -> int:
    """The points of a fresh block for ``need`` draws at success rate ``p``.

    The trials that bring ``need`` successes number ``need / p`` on
    average, with standard deviation ``sqrt(need (1 - p)) / p``.  A block
    holds that mean plus ``_ROUND_SIGMAS`` deviations, capped at
    ``_ROUND_FACTOR`` times the mean, plus 8.  The cap decides for small
    ``need`` (one draw: about ``2 / p``), where a deviation is as large
    as the mean; the margin for large ones, so a large call's block
    holds few more points than it commits.
    """
    mean = need / p
    spread = _ROUND_SIGMAS * math.sqrt(need * (1.0 - p)) / p
    return max(need, int(min(mean + spread, mean * _ROUND_FACTOR)) + 8)


def _fresh_points(rng, k: int):
    """The next ``k`` trial points of ``rng`` as a float array: the values
    of ``[1.0 - rng.random() for _ in range(k)]``, leaving ``rng`` in the
    state that loop leaves.

    ``random.Random.random()`` is ``(a * 2**26 + b) * 2**-53``, where
    ``a`` and ``b`` are the generator's next two 32-bit outputs shifted
    right by 5 and 6, and ``getrandbits(64 * k)`` returns the next ``2k``
    outputs, least significant first.  So from ``_BULK_DRAW`` points on,
    a generator whose ``random`` and ``getrandbits`` are
    ``random.Random``'s own is read in one ``getrandbits`` call and
    decoded with integer array arithmetic: ``a * 2**26 + b < 2**53``, and
    the scale is a power of two, so each value is the loop's bit for
    bit.  Other generators (a subclass that overrides either method, a
    ``SystemRandom``) and fewer points run the loop.
    """
    cls = type(rng)
    if k < _BULK_DRAW or cls.random is not _BASE_RANDOM or cls.getrandbits is not _BASE_GETRANDBITS:
        rand = rng.random
        return _np.array([1.0 - rand() for _ in range(k)], dtype=_np.float64)
    # One little-endian 64-bit word per point: a's output in the low
    # half, b's in the high half.
    words = _np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u8")
    ints = (words & 0xFFFFFFFF) >> 5
    ints <<= 26
    ints |= words >> 38
    points = ints.astype(_np.float64)
    points *= 2.0**-53
    return _np.subtract(1.0, points, out=points)


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
        #: ``(ring, params, windows, cuts)`` of the last walk-kernel
        #: input (see :meth:`_windows_for`).
        self._windows = None
        #: The classified block the next call commits from (see
        #: :meth:`sample_many_attributed`); its uncommitted points come
        #: first in draw order.
        self._block: _Block | None = None
        #: Drawn trial points after the block's, unclassified, in draw
        #: order, as a float array.  A point is independent of every
        #: trial before it, so it is classified against the ring as it
        #: stands when its block is classified.  A block's points may be
        #: a view of an earlier queue: the queue is only ever replaced,
        #: never written in place.
        self._pending = _NO_POINTS

    @property
    def dht(self) -> DHT:
        """The substrate this engine samples over (read-only)."""
        return self._dht

    def warm(self) -> bool:
        """Pre-build the substrate's batch-routing caches and the engine's
        walk windows.

        Delegates to the substrate's ``warm_lockstep`` hook (the Chord
        adapters build their ring snapshot, walk view and route table),
        then builds the walk kernel's windows for the ring the next block
        would be classified against (:meth:`_windows_for`).
        Returns the hook's answer; False on substrates without one.
        Serving shards call this at set-up and right after a
        churn-recovery :meth:`refresh`, so the next dispatch does not pay
        these builds on the request path.
        """
        warm = getattr(self._dht, "warm_lockstep", None)
        engaged = bool(warm()) if warm is not None else False
        key = self._ring_key()
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
        parameters, and its cut thresholds.

        ``ring`` identifies one ring state: the ideal substrate's point
        array (whose gaps are derived here) or a Chord walk view (which
        carries its ``gaps``).  Returns ``(windows, cuts)``
        (:func:`_walk_windows`, :func:`_kernel_cuts`).  Both are rebuilt
        only when the ring state or the parameters change, never once
        per block; the cache holds one ring state.
        """
        params = self.params
        cached = self._windows
        if cached is None or cached[0] is not ring or cached[1] is not params:
            if gaps is None:
                gaps = ring_gaps(ring)
            cached = self._windows = (
                ring,
                params,
                _walk_windows(gaps, params.lam, params.walk_budget),
                _kernel_cuts(params),
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
        replay = getattr(self._dht, "replay_key", None)
        return replay() if replay is not None else None

    def _is_current(self, block: _Block) -> bool:
        """Whether nothing ``block``'s classification read has changed."""
        return block.params is self.params and _same_ring(block.key, self._ring_key())

    def _classify_block(self, points, key) -> _Block | None:
        """Run Figure 1 on ``points`` (a float array) against the ring
        ``key`` names, uncharged.

        Returns a block over all of them, or over the prefix a Chord
        resolve stopped at (an out-of-circle point); None when the
        substrate resolves none of them without side effects.
        """
        params = self.params
        dht = self._dht
        if self._bulk:
            ss = _check_points(points)
            pts = _np.asarray(dht.points_array(), dtype=_np.float64)
            codes, out, hops = _kernel_numpy(pts, *self._windows_for(pts), params.lam, ss)
            # The oracle's handles are shared objects: made once per peer.
            peer = dht.successor_of_index
            return _Block(
                key, params, points, codes, out, hops, lambda q: list(map(peer, q.tolist()))
            )
        found = dht.resolve_many(points, commit=False)
        if not found:
            return None
        key = self._ring_key()  # read after the resolve: it may fail a dead entry over
        view = key[0]
        points = points[: len(found)]
        codes, starts, out, hops, certified = self._plan_walks(view, points, found)
        return _Block(
            key, params, points, codes, out, hops, view.peers,
            found=found, starts=starts, certified=certified,
        )

    def _plan_walks(self, view, points, found):
        """Figure 1 for every resolved trial on ``view``, as arrays.

        Returns ``(codes, starts, stops, hops, certified)``: the outcome
        code (``_UNKNOWN`` where the lookup failed), the first peer's
        ring position (``-1`` if absent), the assigned peer's ring
        position (``-1`` if none), the walk length, and whether ``view``
        certifies the trial -- its lookup succeeded, its first peer sits
        in the view and its walk, to its hit or its cut, stays inside
        that peer's run.

        The first peers' positions come from the resolve where it read
        them (a route table answers with each owner's position, valid
        for the state ``view`` was read at); the rest, the lanes' answers
        and the rows the table replayed, are searched in ``view``.
        """
        k = len(found)
        starts = found.position
        if starts is None:
            starts = view.positions(found.owner)
        else:
            missing = (starts < 0).nonzero()[0]
            if missing.size:
                starts[missing] = view.positions(found.owner[missing])
        known = (starts >= 0).nonzero()[0]
        codes = _np.full(k, _UNKNOWN, dtype=_np.int8)
        stops = _np.full(k, -1, dtype=_np.int64)
        hops = _np.zeros(k, dtype=_np.int64)
        if known.size:
            codes[known], stops[known], hops[known] = _classify(
                *self._ring_windows(view),
                view.points,
                starts[known],
                points[known],
                self.params.lam,
            )
        certified = (starts >= 0) & (view.run[starts] >= hops)
        return codes, starts, stops, hops, certified

    def _refill(self, need: int, p: float) -> _Block | None:
        """Classify the next block of queued points; None when trials must
        run one at a time.

        The current block's uncommitted points go back to the front of
        the queue first.  A block holds the rejection round that serves
        ``need`` draws at success rate ``p`` (:func:`_round_size`); after
        a block was used up on a ring state that still holds, the next
        one on it is twice as large, up to one walk-kernel slab, so a
        static ring is classified about once per ``_WALK_SLAB`` trials
        however small the calls are.  At most ``_MAX_ROUND`` points
        either way.
        """
        old = self._release()
        key = self._ring_key()
        if key is None:
            return None
        size = _round_size(need, p)
        if (
            old is not None
            and old.cursor == old.rows
            and old.params is self.params
            and _same_ring(old.key, key)
        ):
            size = max(size, min(2 * old.rows, _WALK_SLAB))
        points = self._draw(min(size, _MAX_ROUND))
        block = self._classify_block(points, key)
        covered = block.rows if block is not None else 0
        self._requeue(points[covered:])
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
            self._requeue(old.points[old.cursor :])
        return old

    def _requeue(self, points) -> None:
        """Put ``points`` (a float array) back at the front of the queue."""
        if len(points):
            self._pending = _np.concatenate((points, self._pending))

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
        hi = bad[block.b] if block.b < len(bad) else block.rows
        if hi == lo:
            block.cursor += 1
            block.b += 1
            return self._commit_one(block.points.item(lo), results)
        if lo + limit < hi:
            hi = lo + limit
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
        cum_walks = block.cum_walks
        return hi - lo, block.win_peers[w:stop], cum_walks[stop] - cum_walks[w]

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
                return _trial_from_first(self._dht, self.params, s, first)
            except PeerUnreachableError:
                pass
        self.stale_trials += 1
        return TrialResult(s=s, outcome=TrialOutcome.EXHAUSTED, peer=None, walk_hops=0)

    def _draw(self, size: int):
        """``size`` trial points as a float array: queued ones first, then
        fresh draws (:func:`_fresh_points`)."""
        pending = self._pending
        if len(pending) >= size:
            self._pending = pending[size:]
            return pending[:size]
        self._pending = _NO_POINTS
        fresh = _fresh_points(self._rng, size - len(pending))
        return _np.concatenate((pending, fresh)) if len(pending) else fresh

    def _draw_one(self) -> float:
        """The next trial point: the first queued one, else a fresh draw.
        A trial run on its own pays no array call for it."""
        pending = self._pending
        if len(pending):
            self._pending = pending[1:]
            return pending.item(0)
        return 1.0 - self._rng.random()

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
        points = _np.asarray(points, dtype=_np.float64)
        results: list[TrialResult] = []
        i = 0
        while i < len(points):
            key = self._ring_key()
            block = self._classify_block(points[i:], key) if key is not None else None
            if block is None:
                self._commit_one(points.item(i), results)
                i += 1
                continue
            rows = block.rows
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
        h0, n0, m0, l0 = cost.h_calls, cost.next_calls, cost.messages, cost.latency
        out: list[PeerRef] = []
        budget = self._max_trials * k
        used = 0
        chunks = 0
        walk_hits = 0
        p_est = None  # success-rate estimate, read when a block is classified
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
            if block is None or block.cursor == block.rows or not self._is_current(block):
                if p_est is None:
                    p_est = min(max(self.params.n_hat * self.params.lam, 1e-4), 1.0)
                block = self._refill(need, p_est)
                if block is not None and block.classified:
                    p_est = min(max((block.successes + 1) / (block.classified + 2), 1e-4), 1.0)
            chunk_before = cost.snapshot() if tracing else None
            if block is None:
                taken, peers, hits = self._commit_one(self._draw_one(), None)
            else:
                taken, peers, hits = self._commit(block, need, budget - used, None)
            used += taken
            walk_hits += hits
            if tracing:
                tracer.on_round(chunks, taken, len(peers), cost.snapshot() - chunk_before)
            chunks += 1
            out += peers
        block = self._block
        if block is not None and block.rows - block.cursor > _WALK_SLAB:
            # What a call leaves classified is at most one slab's block;
            # a large call's rest stays queued as bare points.
            self._release()
        return BatchSampleResult(
            tuple(out),
            used,
            chunks,
            CostSnapshot(
                cost.h_calls - h0, cost.next_calls - n0, cost.messages - m0, cost.latency - l0
            ),
            walk_hits,
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
    """The walk kernel's step rows for one ring state.

    Row ``p`` holds ``gap - lam`` for the hops a walk from ring position
    ``p`` takes: a read-only sliding-window view over the gaps tiled far
    enough that every row runs ``max(budget, _SHORT)`` positions
    clockwise, lapping the ring as often as that requires.  ``gap - lam``
    is the scalar loop's ``step - lam``, computed once per ring state; a
    one-peer ring's step is a full lap, 1.0, as the scalar loop adds it
    for a self-successor.
    """
    n = len(gaps)
    if n == 1:
        gaps = _np.ones(1)
    width = max(budget, _SHORT)
    span = n + width - 1
    steps = _np.tile(gaps, -(-span // n))[:span] - lam
    return _np.lib.stride_tricks.sliding_window_view(steps, width)


def _kernel_cuts(params):
    """The cut thresholds as the walk kernel reads them: ``(bounds, slab)``.

    ``bounds[k]`` is the cut after hop ``k`` (``params.cuts`` reversed:
    ``budget - k`` hops are left).  ``slab`` repeats the first pass's
    thresholds, hops 1 to ``_SHORT``, on ``_WALK_SLAB`` rows, so the pass
    compares two same-shaped arrays (a broadcast row costs several times
    more); a hop past the budget gets ``-inf``, which never decides,
    because the walk always ends at hop ``budget`` (``cuts[0] == 0``).
    """
    bounds = _np.array(params.cuts[::-1])
    narrow = _np.full(_SHORT, -_np.inf)
    narrow[: len(bounds) - 1] = bounds[1 : _SHORT + 1]
    return bounds, _np.tile(narrow, (_WALK_SLAB, 1))


def _first_ends(t, thresholds):
    """Each row's first end among the hops of ``t``: ``(j, hit, ended)``.

    A hop ends a walk when its ``T <= 0`` (a hit) or its ``T`` exceeds
    its threshold (the cut).  ``j`` is each row's first such column (0
    when it has none), ``hit`` whether that end is a hit, and ``ended``
    whether the row has an end at all.
    """
    ends = t <= 0.0
    ends |= t > thresholds
    j = ends.argmax(axis=1)
    at = j + _np.arange(0, ends.size, ends.shape[1])  # row-major index of (row, j)
    return j, t.ravel()[at] <= 0.0, ends.ravel()[at]


def _walk_kernel(windows, cuts, first, t0):
    """Figure 1's clockwise walk for every non-small trial, to its hit or cut.

    ``first`` holds each trial's first ring position and ``t0`` its ``T``
    before the first hop, ``arc - lam``; ``cuts`` is
    :func:`_kernel_cuts`.  A walk ends at its first hop with ``T <= 0``
    (a hit) or with ``T`` above the cut for the hops left, or before any
    hop when ``t0`` already is.  A narrow first pass gathers each row's
    first ``_SHORT`` steps and sums ``T`` by in-order column adds, the
    scalar loop's ``t += step - lam`` bit for bit (``a + b`` is ``b + a``
    exactly).  The few walks that end in neither run again at full
    width, where ``cumsum`` adds in order too; both passes find a row's
    end with :func:`_first_ends`.  Returns ``(hops, hit)``: each walk's
    length and whether it ended at a peer.
    """
    bounds, slab = cuts
    budget = len(bounds) - 1
    k = len(first)
    hops = _np.empty(k, dtype=_np.int64)
    hit = _np.empty(k, dtype=bool)
    for lo in range(0, k, _WALK_SLAB):
        rows = first[lo : lo + _WALK_SLAB]
        start = t0[lo : lo + _WALK_SLAB]
        t = windows[rows, :_SHORT]
        t[:, 0] += start
        for c in range(1, _SHORT):
            t[:, c] += t[:, c - 1]
        j, hit[lo : lo + _WALK_SLAB], ended = _first_ends(t, slab[: len(rows)])
        cut = start > bounds[0]
        hops[lo : lo + _WALK_SLAB] = _np.where(cut, 0, j + 1)
        rest = (~ended & ~cut).nonzero()[0]
        if rest.size:
            t = windows[rows[rest], :budget]
            t[:, 0] += start[rest]
            _np.cumsum(t, axis=1, out=t)
            # cuts[0] == 0 ends every walk at the budget.
            j, walked_hit, _ = _first_ends(t, bounds[1:])
            rest += lo
            hops[rest] = j + 1
            hit[rest] = walked_hit
    return hops, hit


def _classify(windows, cuts, ring_pts, first, ss, lam):
    """Figure 1 for points ``ss`` whose ``h`` sits at ring positions ``first``.

    Every non-small trial walks through :func:`_walk_kernel`.  Returns
    ``(codes, out_idx, hops)`` arrays: the outcome code, the assigned
    peer's ring position (``-1`` if none) and the walk length of each
    trial.
    """
    arc = clockwise_distances(ss, ring_pts[first])
    small = arc < lam
    walk = (~small).nonzero()[0]
    walked, hit = _walk_kernel(windows, cuts, first[walk], arc[walk] - lam)
    won = walk[hit]
    codes = _np.where(small, _SMALL, _EXHAUSTED)
    codes[won] = _WALK
    out_idx = _np.where(small, first, -1)
    out_idx[won] = (first[won] + walked[hit]) % len(ring_pts)
    hops = _np.zeros(len(first), dtype=_np.int64)
    hops[walk] = walked
    return codes, out_idx, hops


def _check_points(points):
    """``points`` as a float array; rejects points outside the unit
    circle ``(0, 1]``, as ``trial`` does."""
    ss = _np.asarray(points, dtype=_np.float64)
    ok = (ss > 0.0) & (ss <= 1.0)  # negated form would let NaN slip through
    if not ok.all():
        bad = float(ss[~ok][0])
        raise ValueError(f"point {bad!r} is outside the unit circle (0, 1]")
    return ss


def _kernel_numpy(pts, windows, cuts, lam, ss):
    """Vectorized Figure 1 over all trials against the flat point array.

    ``h`` is a ``searchsorted`` over the sorted points, asked in
    ascending key order: each search then starts at the last answer and
    reads the point array front to back, which at n = 1e5 cost well under
    half of asking in draw order; the answers are the same.  The walks
    run through :func:`_classify`.  Outcomes are bit-identical to
    :meth:`RandomPeerSampler.trial`.  ``ss`` is a float array of points
    in ``(0, 1]`` (:func:`_check_points`).
    """
    order = ss.argsort()
    idx = _np.empty(len(ss), dtype=_np.int64)
    idx[order] = _np.searchsorted(pts, ss[order], side="left")
    idx %= len(pts)
    return _classify(windows, cuts, pts, idx, ss, lam)
