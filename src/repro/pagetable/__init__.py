"""Hierarchical (x86-64-style, four-level) page tables and walkers.

Two instances of the same machinery appear in a FAM system:

* Each node's OS keeps a **node page table** mapping virtual pages to
  node physical frames (walked by the node MMU on TLB misses,
  Figure 1a).
* The memory broker keeps a per-node **system (FAM) page table**
  mapping node physical pages to FAM frames (walked by the STU on
  translation misses, Section III-C).

Table pages are real frames obtained from an allocator callback, so
walks generate genuine memory traffic to wherever those frames live
(local DRAM or FAM) — this is what makes address-translation requests
show up at the FAM in Figures 4 and 11.
"""

from repro.pagetable.x86 import FourLevelPageTable, LEVEL_NAMES, WalkStep
from repro.pagetable.walker import PageTableWalker

__all__ = [
    "FourLevelPageTable",
    "WalkStep",
    "LEVEL_NAMES",
    "PageTableWalker",
]
