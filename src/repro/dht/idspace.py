"""Shared identifier-space arithmetic for discrete-id substrates.

Every message-level DHT in this repo hashes peers onto ``m``-bit
identifiers; the paper's continuous model lives on the unit circle
``(0, 1]``.  Identifier ``j`` maps to the point ``j / 2**m``, with
``j == 0`` landing on ``1.0`` (the same location, since the circle
identifies 0 and 1).  The mapping is substrate-independent -- Chord
arranges the identifiers clockwise on a ring, Kademlia measures them
with the XOR metric -- so it lives here and each substrate layers its
own routing geometry on top (:mod:`repro.dht.chord.idspace`,
:mod:`repro.dht.kademlia.idspace`).  The distinct uniform ids every
overlay is built and joined from are drawn here too.
"""

from __future__ import annotations

import math

import numpy as _np

__all__ = ["draw_distinct_ids", "draw_sorted_ids", "id_to_point", "point_to_target_id"]


def id_to_point(node_id: int, m: int) -> float:
    """Location of identifier ``node_id`` on the unit circle ``(0, 1]``."""
    size = 1 << m
    if not 0 <= node_id < size:
        raise ValueError(f"id {node_id} outside [0, 2^{m})")
    return 1.0 if node_id == 0 else node_id / size


def point_to_target_id(x: float, m: int) -> int:
    """The identifier whose clockwise successor is ``h(x)``.

    A node at identifier ``j`` has point ``j / 2**m``; the clockwise-
    closest peer to ``x`` is the first node with ``j >= x * 2**m``,
    i.e. ``find_successor(ceil(x * 2**m) mod 2**m)`` in Chord terms.
    Kademlia's adapter resolves the same target through XOR-routed
    block probes (see :mod:`repro.dht.kademlia.network`).
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"point {x!r} outside the unit circle (0, 1]")
    size = 1 << m
    return math.ceil(x * size) % size


def draw_distinct_ids(rng, m: int, count: int, taken=()) -> list[int]:
    """``count`` distinct uniform ``m``-bit ids not in ``taken``, in draw order.

    The ids, and the generator state after, of a rejection loop over
    ``rng.randrange(2**m)`` (a ``random.Random``) in which a candidate
    already taken, or already drawn, is dropped and drawn again -- read
    in bulk.  ``randrange(2**m)`` is ``getrandbits(m + 1)`` redrawn while
    ``>= 2**m``, that is while the top bit of its last 32-bit word is
    set, and ``getrandbits(32 * c)`` returns the next ``c`` words, least
    significant first.  Each round reads the words of one call per id
    still missing, which the loop needs at least, then drops the
    rejects and dedupes in stream order.  ``taken`` is any container of
    the ids in use (only ``in`` is asked of it).
    """
    size = 1 << m
    if count > size:
        raise ValueError(f"cannot place {count} nodes in a 2^{m} id space")
    words = m // 32 + 1  # 32-bit words per getrandbits(m + 1)
    shift = 32 * words - m - 1  # low bits dropped from the last word
    dtype = _np.uint64 if words <= 2 else object
    chosen: set[int] = set()
    fresh: list[int] = []
    while len(fresh) < count:
        calls = count - len(fresh)
        raw = rng.getrandbits(32 * words * calls).to_bytes(4 * words * calls, "little")
        block = _np.frombuffer(raw, dtype="<u4").reshape(calls, words)
        block = block[block[:, -1] < 1 << 31]
        value = (block[:, -1] >> shift).astype(dtype)
        for word in range(words - 2, -1, -1):
            value = (value << 32) | block[:, word].astype(dtype)
        for candidate in value.tolist():
            if candidate not in taken and candidate not in chosen:
                chosen.add(candidate)
                fresh.append(candidate)
    return fresh


def draw_sorted_ids(rng, m: int, count: int):
    """``count`` distinct uniform ids for a fresh overlay, sorted: the
    build of :class:`~repro.dht.kademlia.routing.SoAKademliaNetwork`.

    Below 1,024 ids it is :func:`draw_distinct_ids`, sorted (a list).
    A larger ring is drawn in bulk from a numpy generator seeded by
    ``rng`` (a numpy array): over-draw, dedupe, then a uniform random
    subset, so that truncating the (sorted) unique array cannot bias
    low ids.
    """
    if count < 1024:
        return sorted(draw_distinct_ids(rng, m, count))
    size = 1 << m
    np_rng = _np.random.default_rng(rng.randrange(1 << 63))
    uniq = _np.unique(
        np_rng.integers(0, size, size=count + count // 4 + 16, dtype=_np.int64)
    )
    while len(uniq) < count:
        more = np_rng.integers(0, size, size=count, dtype=_np.int64)
        uniq = _np.unique(_np.concatenate([uniq, more]))
    subset = np_rng.choice(uniq, size=count, replace=False)
    subset.sort()
    return subset
