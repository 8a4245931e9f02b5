"""Set-associative caches and the node's three-level data hierarchy.

* :mod:`repro.cache.replacement` — LRU / FIFO / seeded-random victim
  selection policies.
* :mod:`repro.cache.cache` — a generic set-associative tag store used
  for data caches, TLBs, PTW caches, and the STU cache organizations.
* :mod:`repro.cache.hierarchy` — the L1/L2/L3 stack of Table II
  (inclusive of L3 only; see its module docstring), returning the level that served each access and the on-chip
  latency incurred.
"""

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)

__all__ = [
    "SetAssociativeCache",
    "CacheHierarchy",
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "make_policy",
]
