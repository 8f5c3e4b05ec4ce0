"""Declarative fault plans: a timeline of scheduled fault events.

A :class:`FaultPlan` is a frozen sequence of fault events, each pinned
to a simulation-clock instant (and, for revertable faults, a duration).
:meth:`FaultPlan.schedule` arms the whole timeline on a
:class:`~repro.sim.kernel.Simulator` against one overlay network; the
fault-scenario runner (:mod:`repro.scenarios.faults`) instead applies
events phase by phase for lock-step measurement.  Either way the events
themselves do the injecting, so "what went wrong and when" lives in one
JSON-able record.

Events operate on the backend-agnostic overlay vocabulary (``nodes``,
``sorted_ids()``, ``crash_node``, ``transport.faults``), so every
injector works unchanged on Chord and Kademlia networks.  All
victim selection draws from an explicitly passed RNG stream -- plans
are deterministic under a fixed seed.

:data:`INJECTORS` names and describes the available injectors for the
CLI's ``repro faults list``.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

__all__ = [
    "FaultPlan",
    "GreyFailure",
    "INJECTORS",
    "LossBurst",
    "MassKill",
    "Partition",
    "REGIONS",
    "select_region",
]

#: How correlated-victim sets are drawn.  ``arc`` takes a contiguous run
#: of the clockwise id order starting at a random offset (a "region" of
#: the ring -- one datacenter's identifier range failing together);
#: ``random`` samples victims independently of ring position.
REGIONS = ("arc", "random")


def select_region(sorted_ids, count: int, region: str, rng: random.Random) -> list[int]:
    """``count`` victim ids from the live membership, per the region rule."""
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}; choose from {REGIONS}")
    n = len(sorted_ids)
    count = max(0, min(count, n))
    if count == 0:
        return []
    if region == "random":
        return sorted(rng.sample(list(sorted_ids), count))
    start = rng.randrange(n)
    return [sorted_ids[(start + j) % n] for j in range(count)]


@dataclass(frozen=True, slots=True)
class MassKill:
    """Correlated regional mass failure: crash a fraction of the overlay
    in one instant (no goodbyes, no staggering)."""

    at: float = 0.0
    fraction: float = 0.4
    region: str = "arc"

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("kill fraction must be in (0, 1)")
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}; choose from {REGIONS}")

    def apply(self, network, rng: random.Random) -> list[int]:
        ids = network.sorted_ids()
        count = min(math.ceil(self.fraction * len(ids)), len(ids) - 1)
        victims = select_region(ids, count, self.region, rng)
        for victim in victims:
            network.crash_node(victim)
        return victims


@dataclass(frozen=True, slots=True)
class Partition:
    """Sever the overlay into reachability groups for ``duration`` units.

    Groups are ``groups`` contiguous arcs of the clockwise id order
    (rotated by a random offset) or a random assignment, per ``region``.
    ``mode="full"`` severs every cross-group leg; ``mode="oneway"``
    leaves legs from lower- to higher-indexed groups alive (a partial,
    asymmetric partition: requests cross, replies are lost).
    """

    at: float = 0.0
    duration: float = 50.0
    groups: int = 2
    mode: str = "full"
    region: str = "arc"

    def __post_init__(self):
        if self.groups < 2:
            raise ValueError("a partition needs at least two groups")
        if self.duration <= 0:
            raise ValueError("partition duration must be positive")
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}; choose from {REGIONS}")

    def build_groups(self, network, rng: random.Random) -> list[list[int]]:
        ids = network.sorted_ids()
        if len(ids) < self.groups:
            raise ValueError(f"cannot split {len(ids)} nodes into {self.groups} groups")
        if self.region == "random":
            shuffled = list(ids)
            rng.shuffle(shuffled)
            return [shuffled[g :: self.groups] for g in range(self.groups)]
        start = rng.randrange(len(ids))
        rotated = [ids[(start + j) % len(ids)] for j in range(len(ids))]
        bounds = [round(g * len(ids) / self.groups) for g in range(self.groups + 1)]
        return [rotated[bounds[g] : bounds[g + 1]] for g in range(self.groups)]

    def apply(self, network, rng: random.Random) -> list[list[int]]:
        groups = self.build_groups(network, rng)
        network.transport.faults.partition(groups, mode=self.mode)
        return groups

    def revert(self, network, token=None) -> None:
        network.transport.faults.heal_partition()


@dataclass(frozen=True, slots=True)
class GreyFailure:
    """Grey-fail a fraction of nodes: alive, but slow and lossy."""

    at: float = 0.0
    duration: float = 50.0
    fraction: float = 0.1
    latency_factor: float = 10.0
    extra_loss: float = 0.25
    region: str = "random"

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("grey fraction must be in (0, 1)")
        if self.duration <= 0:
            raise ValueError("grey duration must be positive")
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}; choose from {REGIONS}")

    def apply(self, network, rng: random.Random) -> list[int]:
        ids = network.sorted_ids()
        count = min(math.ceil(self.fraction * len(ids)), len(ids))
        victims = select_region(ids, count, self.region, rng)
        faults = network.transport.faults
        for victim in victims:
            faults.set_grey(
                victim,
                latency_factor=self.latency_factor,
                extra_loss=self.extra_loss,
            )
        return victims

    def revert(self, network, token=None) -> None:
        faults = network.transport.faults
        for victim in token or ():
            faults.clear_grey(victim)


@dataclass(frozen=True, slots=True)
class LossBurst:
    """A network-wide burst of elevated packet loss."""

    at: float = 0.0
    duration: float = 50.0
    extra_loss: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.extra_loss < 1.0:
            raise ValueError("burst extra_loss must be in (0, 1)")
        if self.duration <= 0:
            raise ValueError("burst duration must be positive")

    def apply(self, network, rng: random.Random) -> float:
        network.transport.faults.set_burst_loss(self.extra_loss)
        return self.extra_loss

    def revert(self, network, token=None) -> None:
        network.transport.faults.set_burst_loss(0.0)


#: Injector catalogue for ``repro faults list``: name -> (class, summary).
INJECTORS: dict[str, tuple[type, str]] = {
    "mass-kill": (
        MassKill,
        "crash 30-50% of the overlay in one instant; region = contiguous "
        "id arc or random sample",
    ),
    "partition": (
        Partition,
        "sever reachability into groups (contiguous arcs or random); "
        "full two-way or one-way (requests cross, replies lost)",
    ),
    "grey": (
        GreyFailure,
        "grey-fail nodes: alive but with inflated latency and elevated "
        "per-leg loss",
    ),
    "loss-burst": (
        LossBurst,
        "network-wide burst of extra packet loss on every delivery",
    ),
}


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable timeline of fault events on the simulation clock."""

    events: tuple = ()

    def __post_init__(self):
        for event in self.events:
            if not hasattr(event, "apply") or not hasattr(event, "at"):
                raise TypeError(f"not a fault event: {event!r}")

    def schedule(self, sim, network, rng: random.Random) -> list[dict]:
        """Arm every event on ``sim`` against ``network``.

        Returns a live log list: as events fire, one record per
        apply/revert is appended (``time``, ``event``, ``detail``), so
        callers can assert on -- or report -- what actually happened.
        Revertable events schedule their revert at ``at + duration``.
        """
        log: list[dict] = []
        for event in self.events:
            self._arm(sim, network, rng, event, log)
        return log

    def _arm(self, sim, network, rng, event, log) -> None:
        token_cell: list = []

        def fire() -> None:
            token_cell.append(event.apply(network, rng))
            log.append(
                {"time": sim.now, "event": self.describe_event(event), "phase": "apply"}
            )

        sim.schedule_at(event.at, fire)
        duration = getattr(event, "duration", None)
        if duration is not None and hasattr(event, "revert"):

            def lift() -> None:
                token = token_cell[0] if token_cell else None
                event.revert(network, token)
                log.append(
                    {
                        "time": sim.now,
                        "event": self.describe_event(event),
                        "phase": "revert",
                    }
                )

            sim.schedule_at(event.at + duration, lift)

    @staticmethod
    def describe_event(event) -> dict:
        record = dataclasses.asdict(event)
        record["kind"] = next(
            (name for name, (cls, _) in INJECTORS.items() if isinstance(event, cls)),
            type(event).__name__,
        )
        return record

    def to_record(self) -> list[dict]:
        return [self.describe_event(e) for e in self.events]
