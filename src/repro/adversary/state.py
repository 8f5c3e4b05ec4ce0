"""The Byzantine-peer surface an :class:`~repro.sim.network.RpcTransport`
consults on every delivery.

The King-Saia threat model is peers that *participate but lie*: they
answer RPCs (so they never look dead) yet deflect lookups, misreport
membership, or poison routing tables toward a colluding clique.  An
:class:`AdversaryState` holds which node ids are Byzantine and what lie
family each tells, and rewrites the *reply* of any RPC whose responder
is Byzantine -- the request still crossed the network, the handler still
ran, every message and latency unit was still charged.  Honest nodes
cannot tell a lie from a truth at the transport level, which is exactly
the premise the sampling algorithm must survive.

Three lie families (see docs/ADVERSARY.md for the full threat model):

- ``lookup`` -- deflection: routed answers (`Chord` ``lookup_step`` /
  ``get_successor``, Kademlia ``find_node`` / ``find_clockwise``) are
  bent toward the colluder clique, so queries terminate on an adversary
  instead of the true successor.
- ``census`` -- membership misreport: successor lists and contact
  replies are over-reported (colluders injected) by odd-id liars and
  under-reported (truncated) by even-id liars, skewing any census or
  repair that trusts reported neighbourhoods.
- ``eclipse`` -- routing-table poisoning: every contact reply is
  replaced wholesale by colluders, so honest Kademlia nodes ``observe``
  only adversaries and honest Chord stabilization is dragged toward the
  clique.  The poison persists in honest state long after the reply.

Design discipline mirrors :class:`repro.faults.state.FaultState`: pure
bookkeeping, **no RNG** (every lie is a deterministic function of the
query, so seeded runs stay bit-identical), no clock, no transport
imports.  The transport consults :attr:`active` once per delivery; the
:class:`~repro.sim.network.NullAdversary` default keeps the disabled
cost to that single attribute read.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["AdversaryState", "LIE_STRATEGIES"]

#: The lie families a Byzantine node can be marked with.
LIE_STRATEGIES = ("lookup", "census", "eclipse")

#: Chord maintenance replies the eclipse strategy rewrites (lookup-path
#: and Kademlia contact-list replies are handled per method below).
_CHORD_ECLIPSED = frozenset({"get_predecessor", "get_successor_list"})


class AdversaryState:
    """Currently-marked Byzantine peers and their lie strategies.

    ``m`` is the identifier width of the overlay the adversary lives in
    (ids are in ``[0, 2**m)``); clockwise deflection needs it to wrap.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("identifier width m must be positive")
        self.m = m
        self._size = 1 << m
        self._strategy: dict[int, str] = {}
        self._colluders: tuple[int, ...] = ()  # sorted, for bisect deflection
        #: Lies told, split by RPC method (pure bookkeeping for reports).
        self.lies: dict[str, int] = {}

    # -- marking ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any peer is currently marked Byzantine.

        Consumers that need exact off-transport replay (the Chord
        lockstep engine) refuse to engage while this is True: lies are
        applied at delivery time and cannot be replayed from a snapshot.
        """
        return bool(self._strategy)

    def mark(self, node_id: int, strategy: str = "lookup") -> None:
        """Mark ``node_id`` Byzantine with the given lie family.

        Marked nodes automatically join the colluder clique unless an
        explicit clique was pinned via :meth:`set_colluders`.
        """
        if strategy not in LIE_STRATEGIES:
            raise ValueError(
                f"unknown lie strategy {strategy!r}; choose from {LIE_STRATEGIES}"
            )
        if not 0 <= node_id < self._size:
            raise ValueError(f"node id {node_id} outside [0, 2^{self.m})")
        self._strategy[node_id] = strategy
        if not self._explicit_colluders:
            self._colluders = tuple(sorted(self._strategy))

    def clear(self, node_id: int | None = None) -> None:
        """Restore one node (or, with ``None``, every node) to honesty."""
        if node_id is None:
            self._strategy = {}
        else:
            self._strategy.pop(node_id, None)
        if not self._explicit_colluders:
            self._colluders = tuple(sorted(self._strategy))

    _explicit_colluders = False

    def set_colluders(self, node_ids) -> None:
        """Pin the clique lies deflect toward (defaults to the marked set)."""
        self._colluders = tuple(sorted(set(node_ids)))
        self._explicit_colluders = True

    def is_byzantine(self, node_id: int) -> bool:
        return node_id in self._strategy

    @property
    def byzantine_ids(self) -> frozenset[int]:
        return frozenset(self._strategy)

    @property
    def colluders(self) -> tuple[int, ...]:
        return self._colluders

    def describe(self) -> dict:
        """A JSON-able snapshot (for reports/tests)."""
        by_strategy: dict[str, int] = {}
        for strategy in self._strategy.values():
            by_strategy[strategy] = by_strategy.get(strategy, 0) + 1
        return {
            "active": self.active,
            "byzantine": len(self._strategy),
            "colluders": len(self._colluders),
            "by_strategy": by_strategy,
            "lies_told": sum(self.lies.values()),
            "lies_by_method": dict(sorted(self.lies.items())),
        }

    # -- deterministic lie helpers ----------------------------------------

    def _deflect(self, target_id: int) -> int:
        """The colluder 'owning' ``target_id``: first clockwise at-or-after.

        Deterministic (bisect on the sorted clique, wrapping) so seeded
        runs replay bit for bit -- the adversary owns no dice.
        """
        colluders = self._colluders
        i = bisect_left(colluders, target_id % self._size)
        return colluders[i % len(colluders)]

    def _by_ring_distance(self, target_id: int) -> list[int]:
        """Colluders ordered clockwise from ``target_id`` (wrapping)."""
        colluders = self._colluders
        i = bisect_left(colluders, target_id % self._size)
        return [colluders[(i + j) % len(colluders)] for j in range(len(colluders))]

    def _by_xor_distance(self, target_id: int) -> list[int]:
        """Colluders ordered by XOR distance to ``target_id``."""
        return sorted(self._colluders, key=lambda c: c ^ target_id)

    def _tally(self, method: str) -> None:
        lies = self.lies
        try:
            lies[method] += 1
        except KeyError:
            lies[method] = 1

    # -- the per-delivery rewrite the transport issues ---------------------

    def rewrite(self, responder_id: int, method: str, args: tuple, result):
        """The reply ``responder_id`` actually sends for ``method(*args)``.

        Honest responders (and methods the responder's strategy does not
        cover) pass ``result`` through untouched.  Rewrites never raise
        and never consume randomness; they only substitute ids the
        clique wants believed.  The transport has already charged the
        delivery -- lying is free for the liar, as in the real threat
        model.
        """
        strategy = self._strategy.get(responder_id)
        if strategy is None or not self._colluders:
            return result
        target = args[0] if args and isinstance(args[0], int) else responder_id
        if strategy == "lookup":
            return self._lie_lookup(method, target, result)
        if strategy == "census":
            return self._lie_census(responder_id, method, result)
        return self._lie_eclipse(method, target, result)

    def _lie_lookup(self, method: str, target: int, result):
        if method == "lookup_step":
            # Claim the query is resolved -- at a colluder.  Maintenance
            # replies (get_successor etc.) stay honest under this
            # strategy: lie-in-lookup bends query routing only, so any
            # degradation is attributable to lookups, and the ring
            # itself still stabilizes (poisoning state is `eclipse`).
            self._tally(method)
            return ("done", self._deflect(target))
        if method == "lookup":
            # A full lookup answered by a liar (joins route through this).
            self._tally(method)
            result.node_id = self._deflect(target)
            return result
        if method == "find_node":
            # Keep the reply size (honest nodes cannot count the network)
            # but lead with the clique, XOR-closest first.
            self._tally(method)
            lied = self._by_xor_distance(target)[: len(result)]
            return lied + [i for i in result if i not in lied][: len(result) - len(lied)]
        if method == "find_clockwise":
            self._tally(method)
            lied = self._by_ring_distance(target)[: len(result)]
            return lied + [i for i in result if i not in lied][: len(result) - len(lied)]
        return result

    def _lie_census(self, responder_id: int, method: str, result):
        if method not in ("get_successor_list", "find_node", "find_clockwise"):
            return result
        self._tally(method)
        if responder_id % 2 == 0:
            # Under-report: the neighbourhood shrinks to one entry.
            return result[:1]
        # Over-report: the clique is injected ahead of the honest view.
        return list(self._colluders) + [i for i in result if i not in self._colluders]

    def _lie_eclipse(self, method: str, target: int, result):
        if method in ("find_node", "find_clockwise"):
            # Wholesale replacement: honest callers observe only the
            # clique, and the poison settles into their k-buckets.
            self._tally(method)
            order = (
                self._by_xor_distance(target)
                if method == "find_node"
                else self._by_ring_distance(target)
            )
            return order[: max(len(result), 1)]
        if method in _CHORD_ECLIPSED:
            self._tally(method)
            if method == "get_successor_list":
                return list(self._colluders)
            return self._deflect(0)
        return result
