"""A message-level Chord simulator (Stoica et al. [16]) used as the
standard-DHT substrate: iterative ``O(log n)`` lookups, successor lists,
stabilization, and churn tolerance.
"""

from .async_lookup import lookup_async, lookup_recursive_async
from .batch import BatchLookupStats, LookupTrace, RingSnapshot, lockstep_resolve
from .idspace import id_to_point, in_open_closed, in_open_open, point_to_target_id
from .network import ChordDHT, ChordNetwork
from .node import ChordNode, LookupError_, LookupResult
from .virtual import VirtualChordNetwork

__all__ = [
    "BatchLookupStats",
    "LookupTrace",
    "RingSnapshot",
    "lockstep_resolve",
    "VirtualChordNetwork",
    "id_to_point",
    "point_to_target_id",
    "in_open_closed",
    "in_open_open",
    "ChordDHT",
    "ChordNetwork",
    "ChordNode",
    "LookupError_",
    "LookupResult",
    "lookup_async",
    "lookup_recursive_async",
]
