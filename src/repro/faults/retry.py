"""First-class retry/backoff policy for the transport/DHT boundary.

A :class:`RetryPolicy` pins the whole retry discipline of one caller as
a frozen, JSON-able record: how many total attempts, how long to back
off after each failure (exponential with a cap), how much seeded jitter
to spread synchronized retriers apart, and an optional deadline on the
time one logical call may spend.

:meth:`RetryPolicy.backoff` is the one place a lookup retry is decided:
the DHT adapters (``ChordDHT.h``, ``KademliaDHT._resolve``) charge the
wait it returns without waiting it, and the fault lab's async probe
waits it on the sim clock.  The ``spent`` it weighs against the deadline
is each failed attempt's lookup time plus each wait taken, never the
repair a caller runs between attempts (Chord's stabilization round,
Kademlia's stale-contact sweep).  The service layer's shard workers,
which have no deadline, read :meth:`~RetryPolicy.should_retry` and
:meth:`~RetryPolicy.delay` directly.

Determinism contract: :meth:`delay` consumes its RNG **only** when the
policy actually has jitter (``jitter > 0`` and a positive delay), so
jitter-free policies -- every default -- perturb no seeded stream, and
jittered ones draw from an explicitly passed stream.  Backoff time is
charged to the transport like any other cost (the caller waited), so
retries stay inside the Theorem 7 accounting and two runs of the same
seed produce bit-identical charges.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

__all__ = ["LOOKUP_RETRY", "RetryPolicy"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``attempts`` is the *total* number of tries (1 = no retries).  After
    failure ``f`` (1-based) the caller backs off
    ``min(base_delay * factor**(f-1), max_delay)`` time units, stretched
    by a uniform ``+/- jitter`` fraction when jitter is configured.

    ``deadline``, when set, caps the time one logical call may spend,
    even with attempts left (see :meth:`backoff`).
    """

    attempts: int = 3
    base_delay: float = 0.0
    factor: float = 2.0
    max_delay: float = 64.0
    jitter: float = 0.0
    deadline: float | None = None

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive when set")

    # -- canned policies ---------------------------------------------------

    @classmethod
    def none(cls) -> "RetryPolicy":
        """One attempt, no retries, no backoff."""
        return cls(attempts=1, base_delay=0.0)

    @classmethod
    def fixed(cls, attempts: int, delay: float) -> "RetryPolicy":
        """Constant backoff: every retry waits exactly ``delay``."""
        return cls(attempts=attempts, base_delay=delay, factor=1.0)

    @classmethod
    def exponential(
        cls,
        attempts: int,
        base_delay: float,
        factor: float = 2.0,
        max_delay: float = 64.0,
        jitter: float = 0.0,
    ) -> "RetryPolicy":
        return cls(
            attempts=attempts,
            base_delay=base_delay,
            factor=factor,
            max_delay=max_delay,
            jitter=jitter,
        )

    # -- the discipline ----------------------------------------------------

    @property
    def retries(self) -> int:
        """Retries after the first attempt (``attempts - 1``)."""
        return self.attempts - 1

    def should_retry(self, failures: int) -> bool:
        """May another attempt follow after ``failures`` failures so far?"""
        return failures < self.attempts

    def within_deadline(self, spent: float) -> bool:
        """Whether a call that has already spent ``spent`` may continue."""
        return self.deadline is None or spent < self.deadline

    def delay(self, failure: int, rng: random.Random | None = None) -> float:
        """Backoff before the retry that follows failure ``failure`` (1-based).

        Consumes ``rng`` only when the policy has jitter *and* the
        undithered delay is positive -- jitter-free policies never
        perturb a seeded stream.  A jittered policy without an RNG is a
        caller bug (unseeded jitter would break replayability).
        """
        if failure < 1:
            raise ValueError("failure index is 1-based")
        d = min(self.base_delay * self.factor ** (failure - 1), self.max_delay)
        if self.jitter > 0.0 and d > 0.0:
            if rng is None:
                raise ValueError("a jittered policy needs a seeded rng")
            d *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return d

    def backoff(
        self, failure: int, spent: float, rng: random.Random | None = None
    ) -> float | None:
        """The wait before the attempt after failure ``failure`` (1-based),
        or None to give up.

        Gives up when the attempts are used up, when ``spent`` has reached
        the deadline, or when ``spent`` plus the wait would reach it.  The
        wait is drawn (through :meth:`delay`, so jitter consumes ``rng``)
        only after the first two checks pass.
        """
        if not self.should_retry(failure) or not self.within_deadline(spent):
            return None
        wait = self.delay(failure, rng)
        if self.deadline is not None and spent + wait >= self.deadline:
            return None
        return wait

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


#: The live DHT adapters' default lookup discipline: three back-to-back
#: attempts, no wait between them.
LOOKUP_RETRY = RetryPolicy(attempts=3, base_delay=0.0, factor=1.0)
