"""Set-associative caches and the node's three-level data hierarchy.

* :mod:`repro.cache.cache` — a generic set-associative tag store used
  for data caches, TLBs, PTW caches, and the STU cache organizations.
  Its replacement policy (LRU, FIFO or seeded random) is a constructor
  argument.
* :mod:`repro.cache.hierarchy` — the L1/L2/L3 stack of Table II
  (inclusive of L3 only; see its module docstring), returning the level that served each access and the on-chip
  latency incurred.
"""

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy

__all__ = [
    "SetAssociativeCache",
    "CacheHierarchy",
]
