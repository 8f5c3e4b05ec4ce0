"""The cross-backend substrate contract, run identically on every backend.

King & Saia's algorithms are written against two primitives (``h``,
``next``) plus the cost meter; every substrate -- the analytic oracle,
the Chord ring simulator, the Kademlia XOR simulator -- must implement
them with *identical semantics* so the algorithm layer stays
substrate-independent.  This module is that contract, parametrized over
all backends: lookup correctness against an oracle of the live
membership, charge accounting, bulk-vs-scalar equivalence, uniformity
of sampled peers, and unreachable-peer semantics.  Adding a backend to
:data:`BACKENDS` is how it earns its way into the repo.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.analysis.stats import chi_square_uniform
from repro.core.engine import BatchSampler
from repro.core.estimate import estimate_n
from repro.core.sampler import GAMMA1, GAMMA2, RandomPeerSampler
from repro.dht.api import BulkDHT, CostSnapshot, PeerRef, PeerUnreachableError
from repro.dht.chord.network import ChordNetwork
from repro.dht.ideal import IdealDHT
from repro.dht.kademlia.network import KademliaNetwork
from repro.dht.kademlia.routing import SoAKademliaNetwork


@dataclass(frozen=True)
class Backend:
    """How the conformance suite builds and inspects one substrate."""

    name: str
    make: callable  # (n, seed) -> dht; same (n, seed) -> identical substrate
    live_peer_ids: callable  # (dht) -> set of live peer ids
    bulk: bool  # satisfies BulkDHT (flat-array fast path, synthetic costs)
    churnable: bool  # peers can be crashed out from under the adapter
    crash: callable = None  # (dht, peer_ids) -> None
    transported: bool = True  # has a message transport an adversary can corrupt


def _make_ideal(n, seed):
    return IdealDHT.random(n, random.Random(seed))


def _make_chord(n, seed):
    return ChordNetwork.build_dht(n, m=16, rng=random.Random(seed))


def _make_chord_m32(n, seed):
    # The default ring, as bench_scale builds and serves it: 32-bit ids,
    # too wide for the store's id -> slot table, and 8-deep successor
    # lists.
    return ChordNetwork.build_dht(n, rng=random.Random(seed))


def _make_kademlia(n, seed):
    return KademliaNetwork.build_dht(n, m=16, k=8, rng=random.Random(seed))


def _make_kademlia_soa(n, seed):
    return SoAKademliaNetwork.build_dht(n, m=16, k=8, rng=random.Random(seed))


def _net_ids(dht):
    return set(dht._network.nodes)


def _net_crash(dht, peer_ids):
    for peer_id in peer_ids:
        dht._network.crash_node(peer_id)


BACKENDS = {
    "ideal": Backend(
        name="ideal",
        make=_make_ideal,
        live_peer_ids=lambda dht: {p.peer_id for p in dht.peers},
        bulk=True,
        churnable=False,
        transported=False,
    ),
    "chord": Backend(
        name="chord",
        make=_make_chord,
        live_peer_ids=_net_ids,
        bulk=False,
        churnable=True,
        crash=_net_crash,
    ),
    "chord-m32": Backend(
        name="chord-m32",
        make=_make_chord_m32,
        live_peer_ids=_net_ids,
        bulk=False,
        churnable=True,
        crash=_net_crash,
    ),
    "kademlia": Backend(
        name="kademlia",
        make=_make_kademlia,
        live_peer_ids=_net_ids,
        bulk=False,
        churnable=True,
        crash=_net_crash,
    ),
    # The struct-of-arrays substrate: same lookup/charge semantics, but
    # the state lives in flat arrays rather than in per-node objects
    # behind a message transport.
    "kademlia-soa": Backend(
        name="kademlia-soa",
        make=_make_kademlia_soa,
        live_peer_ids=_net_ids,
        bulk=False,
        churnable=True,
        crash=_net_crash,
        transported=False,
    ),
}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request) -> Backend:
    return BACKENDS[request.param]


def oracle_ring(backend: Backend, dht) -> list[PeerRef]:
    """The live peers in clockwise point order, from oracle knowledge.

    Built from the substrate's uncharged index oracle (every backend
    provides ``successor_of_index``), then independently point-sorted --
    so the reference for ``h``/``next`` does not depend on the routed
    lookup paths under test.
    """
    live = backend.live_peer_ids(dht)
    refs = {dht.successor_of_index(i) for i in range(len(live))}
    assert {r.peer_id for r in refs} == live
    return sorted(refs, key=lambda r: r.point)


def oracle_h(ring: list[PeerRef], x: float) -> PeerRef:
    """Reference ``h``: first peer clockwise at-or-after ``x`` (wrapping)."""
    for ref in ring:
        if ref.point >= x:
            return ref
    return ring[0]


def trial_points(k: int, seed: int) -> list[float]:
    rng = random.Random(seed)
    return [1.0 - rng.random() for _ in range(k)]


class TestLookupCorrectness:
    N = 48

    def test_h_matches_oracle_successor(self, backend):
        dht = backend.make(self.N, seed=10)
        ring = oracle_ring(backend, dht)
        for x in trial_points(80, 77):
            assert dht.h(x) == oracle_h(ring, x), f"h({x}) wrong on {backend.name}"

    def test_h_at_exact_peer_points_returns_that_peer(self, backend):
        dht = backend.make(self.N, seed=11)
        ring = oracle_ring(backend, dht)
        for ref in ring[::5]:
            assert dht.h(ref.point) == ref

    def test_h_is_idempotent(self, backend):
        dht = backend.make(self.N, seed=12)
        for x in trial_points(20, 78):
            first = dht.h(x)
            assert dht.h(first.point) == first

    def test_next_laps_the_whole_ring_in_order(self, backend):
        dht = backend.make(self.N, seed=13)
        ring = oracle_ring(backend, dht)
        start = dht.h(ring[0].point)
        walk = [start]
        for _ in range(len(ring) - 1):
            walk.append(dht.next(walk[-1]))
        assert walk == ring
        assert dht.next(walk[-1]) == start  # wraps

    def test_h_rejects_out_of_domain_points(self, backend):
        dht = backend.make(16, seed=14)
        for bad in (0.0, -0.25, 1.5):
            with pytest.raises(ValueError):
                dht.h(bad)

    def test_single_peer_network_self_loops(self, backend):
        dht = backend.make(1, seed=15)
        only = dht.any_peer()
        assert dht.h(0.5) == only
        assert dht.next(only) == only

    def test_any_peer_is_live(self, backend):
        dht = backend.make(self.N, seed=16)
        assert dht.any_peer().peer_id in backend.live_peer_ids(dht)

    def test_successor_of_index_enumerates_the_ring(self, backend):
        dht = backend.make(self.N, seed=17)
        ring = oracle_ring(backend, dht)
        enumerated = [dht.successor_of_index(i) for i in range(len(ring))]
        assert sorted(enumerated, key=lambda r: r.point) == ring
        # consecutive indices are clockwise-adjacent on the point circle
        for i in range(len(ring)):
            a = enumerated[i]
            b = enumerated[(i + 1) % len(ring)]
            idx = ring.index(a)
            assert ring[(idx + 1) % len(ring)] == b


class TestChargeAccounting:
    N = 32

    def test_h_charges_one_h_call_with_messages(self, backend):
        dht = backend.make(self.N, seed=20)
        before = dht.cost.snapshot()
        dht.h(0.42)
        delta = dht.cost.snapshot() - before
        assert delta.h_calls == 1
        assert delta.next_calls == 0
        assert delta.messages > 0
        assert delta.latency > 0

    def test_next_charges_one_next_call(self, backend):
        dht = backend.make(self.N, seed=21)
        peer = dht.h(0.42)
        before = dht.cost.snapshot()
        dht.next(peer)
        delta = dht.cost.snapshot() - before
        assert delta.next_calls == 1
        assert delta.h_calls == 0
        assert delta.messages > 0

    def test_snapshot_diff_arithmetic(self, backend):
        dht = backend.make(self.N, seed=22)
        empty = dht.cost.snapshot()
        dht.h(0.3)
        mid = dht.cost.snapshot()
        dht.h(0.6)
        end = dht.cost.snapshot()
        assert (mid - empty) + (end - mid) == end - empty
        assert end.h_calls == 2

    def test_reset_zeroes_the_meter(self, backend):
        dht = backend.make(self.N, seed=23)
        dht.h(0.5)
        dht.cost.reset()
        assert dht.cost.snapshot() == CostSnapshot()


class TestBulkEquivalence:
    """``h_many`` must match a scalar ``h`` loop in peers *and* charges."""

    N = 40
    K = 25

    def test_h_many_matches_scalar_loop(self, backend):
        bulk_dht = backend.make(self.N, seed=30)
        scalar_dht = backend.make(self.N, seed=30)  # identical twin
        xs = trial_points(self.K, 79)
        bulk_peers = bulk_dht.h_many(xs)
        scalar_peers = [scalar_dht.h(x) for x in xs]
        assert bulk_peers == scalar_peers
        assert bulk_dht.cost.snapshot() == scalar_dht.cost.snapshot()

    def test_resolve_many_matches_h_many_when_static(self, backend):
        dht = backend.make(self.N, seed=31)
        resolve_many = getattr(dht, "resolve_many", None)
        if resolve_many is None:
            pytest.skip(f"{backend.name} has no tolerant batched resolver")
        xs = trial_points(self.K, 80)
        twin = backend.make(self.N, seed=31)
        assert resolve_many(xs) == twin.h_many(xs)

    def test_bulk_protocol_classification(self, backend):
        dht = backend.make(16, seed=32)
        assert isinstance(dht, BulkDHT) == backend.bulk, (
            f"{backend.name}: live overlays must keep measured per-call "
            "costs (no BulkDHT), oracles may unit-price (BulkDHT)"
        )

    def test_batch_sampler_runs_on_every_backend(self, backend):
        dht = backend.make(self.N, seed=33)
        engine = BatchSampler(dht, rng=random.Random(5))
        peers = engine.sample_many(12)
        live = backend.live_peer_ids(dht)
        assert len(peers) == 12
        assert all(p.peer_id in live for p in peers)


class TestUniformity:
    """Sampled peers are uniform over the live membership on every backend."""

    N = 20
    DRAWS = 400

    def test_chi_square_over_live_peers(self, backend):
        dht = backend.make(self.N, seed=40)
        sampler = RandomPeerSampler(dht, rng=random.Random(41))
        counts = Counter(p.peer_id for p in sampler.sample_many(self.DRAWS))
        live = sorted(backend.live_peer_ids(dht))
        assert set(counts) <= set(live)
        chi = chi_square_uniform([counts.get(i, 0) for i in live])
        assert chi.p_value > 1e-3, (
            f"{backend.name}: sampling significantly non-uniform "
            f"(p={chi.p_value:.2e}, counts={counts})"
        )

    def test_estimate_n_lands_in_the_paper_band(self, backend):
        n = 64
        dht = backend.make(n, seed=42)
        n_hat = estimate_n(dht).n_hat
        assert GAMMA1 * n * 0.5 <= n_hat <= GAMMA2 * n * 2.0, (
            f"{backend.name}: n_hat={n_hat} far outside the Lemma 3 band"
        )


class TestUnreachableSemantics:
    """Transient liveness failures must be PeerUnreachableError, only."""

    N = 40

    def test_static_backends_never_raise(self, backend):
        dht = backend.make(self.N, seed=50)
        for x in trial_points(30, 81):
            dht.h(x)  # must not raise on a static, healthy substrate

    def test_mass_crash_yields_live_peer_or_retryable_error(self, backend):
        if not backend.churnable:
            pytest.skip(f"{backend.name} is a static oracle")
        dht = backend.make(self.N, seed=51)
        live = sorted(backend.live_peer_ids(dht))
        victims = [i for i in live if i != dht.entry_id][:: 2]
        backend.crash(dht, victims)
        survivors = backend.live_peer_ids(dht)
        for x in trial_points(40, 82):
            try:
                peer = dht.h(x)
            except PeerUnreachableError:
                continue  # the documented transient-failure escape hatch
            assert peer.peer_id in survivors, (
                f"{backend.name}: h returned crashed peer {peer.peer_id}"
            )

    def test_sampler_absorbs_crashes_as_retries(self, backend):
        if not backend.churnable:
            pytest.skip(f"{backend.name} is a static oracle")
        dht = backend.make(self.N, seed=52)
        live = sorted(backend.live_peer_ids(dht))
        sampler = RandomPeerSampler(dht, rng=random.Random(53))
        backend.crash(dht, [i for i in live if i != dht.entry_id][::3])
        survivors = backend.live_peer_ids(dht)
        drawn = [sampler.sample() for _ in range(25)]
        assert all(p.peer_id in survivors for p in drawn)


def _record_routes(dht):
    """Wrap the substrate's transport so every RPC responder is recorded.

    Returns the list the wrappers append to; each ``h`` call's contacted
    responders are the list entries added while it ran.
    """
    transport = dht._network.transport
    contacted: list[int] = []
    orig_rpc, orig_oneway = transport.rpc_from, transport.oneway_from

    def rpc_from(source_id, target_id, method, *args, **kwargs):
        contacted.append(target_id)
        return orig_rpc(source_id, target_id, method, *args, **kwargs)

    def oneway_from(source_id, target_id, method, *args, **kwargs):
        contacted.append(target_id)
        return orig_oneway(source_id, target_id, method, *args, **kwargs)

    transport.rpc_from, transport.oneway_from = rpc_from, oneway_from
    return contacted


class TestAdversarialContract:
    """Lookups under Byzantine responders: wrong answers must be attributable.

    The contract every live substrate must honor when some registered
    peers lie in their lookup replies (``AdversaryState``, strategy
    ``"lookup"``):

    - A lookup whose honest route contacts **no** Byzantine peer returns
      exactly the oracle successor -- the adapter never invents or
      launders an adversary-chosen peer on an all-honest path.
    - A lookup whose honest route does cross a Byzantine responder may
      be bent, but only to a *colluder* (or it may still reach the
      oracle answer, or raise ``PeerUnreachableError``).  It must never
      silently return some third, unrelated peer.
    - Every lookup -- truthful or deflected -- charges honestly: one
      ``h`` call with positive messages.  Lying is free for the liar;
      it is never free for the meter.

    The ideal backend has no transport to corrupt, so its contract is
    trivially "always the oracle answer"; asserting that here keeps the
    parametrization total.
    """

    N = 48
    SEED = 60
    TRIALS = 60

    def _byzantine_set(self, dht, live):
        # every fourth live peer, sparing the entry vantage
        return set(sorted(live)[::4]) - {dht.entry_id}

    def test_lookup_is_oracle_correct_or_attributably_bent(self, backend):
        from repro.adversary import AdversaryState

        honest = backend.make(self.N, seed=self.SEED)
        ring = oracle_ring(backend, honest)
        xs = trial_points(self.TRIALS, 83)

        if not backend.transported:  # no message transport to corrupt
            for x in xs:
                assert honest.h(x) == oracle_h(ring, x)
            return

        # honest twin records which responders each lookup touches
        routes = _record_routes(honest)
        honest_routes = []
        for x in xs:
            start = len(routes)
            honest.h(x)
            honest_routes.append(set(routes[start:]))

        lying = backend.make(self.N, seed=self.SEED)  # identical twin
        live = backend.live_peer_ids(lying)
        byzantine = self._byzantine_set(lying, live)
        assert byzantine and lying.entry_id not in byzantine
        adv = AdversaryState(m=lying._network.m)
        for peer_id in byzantine:
            adv.mark(peer_id, "lookup")
        lying._network.transport.install_adversary(adv)

        bent = 0
        for x, route in zip(xs, honest_routes):
            before = lying.cost.snapshot()
            try:
                peer = lying.h(x)
            except PeerUnreachableError:
                continue  # honest refusal is within the contract
            delta = lying.cost.snapshot() - before
            assert delta.h_calls == 1 and delta.messages > 0, (
                f"{backend.name}: lookup under lies must still charge"
            )
            expected = oracle_h(ring, x)
            if route.isdisjoint(byzantine):
                assert peer == expected, (
                    f"{backend.name}: all-honest route for h({x}) returned "
                    f"{peer.peer_id} instead of oracle {expected.peer_id}"
                )
            else:
                assert peer == expected or peer.peer_id in byzantine, (
                    f"{backend.name}: h({x}) returned {peer.peer_id}, which "
                    "is neither the oracle successor nor a colluder"
                )
                if peer != expected:
                    bent += 1
        # the lie surface must actually have been exercised, or this
        # test would pass vacuously with the adversary disconnected.
        # (Successful deflection is NOT required: Kademlia's aligned
        # block certification legitimately outvotes lone liars, so its
        # bent count may be zero while thousands of lies were told.)
        assert adv.describe()["lies_told"] > 0, (
            f"{backend.name}: no Byzantine responder was ever consulted"
        )
        if backend.name.startswith("chord"):
            assert bent > 0, f"{backend.name}: greedy routing should have been bent"

    def test_census_lies_never_corrupt_the_lookup_path(self, backend):
        from repro.adversary import AdversaryState

        if not backend.transported:
            pytest.skip(f"{backend.name} has no transport to corrupt")
        dht = backend.make(self.N, seed=self.SEED + 1)
        ring = oracle_ring(backend, dht)
        live = backend.live_peer_ids(dht)
        adv = AdversaryState(m=dht._network.m)
        for peer_id in self._byzantine_set(dht, live):
            adv.mark(peer_id, "census")
        dht._network.transport.install_adversary(adv)
        for x in trial_points(30, 84):
            assert dht.h(x) == oracle_h(ring, x), (
                f"{backend.name}: census lies must only distort membership "
                "reports, never routed lookups"
            )
