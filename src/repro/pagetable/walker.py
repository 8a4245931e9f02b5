"""A hardware page-table walker with page-walk caches.

On a TLB miss the MMU walks the four-level table.  Walk caches
(Bhargava et al. [8], configured at 32 entries in the paper) hold the
*interior* entries — PGD, PUD, PMD — keyed by the upper virtual-address
bits, letting a walk skip straight to the deepest cached level.  The
PTE level is never walk-cached (that is the TLB's job), so a best-case
cached walk still performs exactly one memory access, matching the
paper's model where DeACT is applied "only to the last level of the
page table".

:meth:`PageTableWalker.walk` runs on every TLB miss (and every STU
walk), so it is a ``@hot_path``: one probe of the table's walk store
yields the frame and the four entry addresses, and the walk
caches are probed and filled in line, with
:meth:`~repro.cache.cache.SetAssociativeCache.get_line`'s body and
counters and ``fill_line``'s LRU body: a level the walk traverses is
one whose probe just missed, so its fill skips the replace-in-place
check.  It returns
``(frame, addrs)``, where ``addrs`` is the tuple of entry addresses
the walk must still read, root to leaf.  The composed seed body,
which descends the tree, is
:func:`repro.core.refpath._ref_walker_walk`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.core.hotpath import hot_path
from repro.pagetable.x86 import FourLevelPageTable

__all__ = ["PageTableWalker"]

_BITS_PER_LEVEL = 9


class PageTableWalker:
    """Walks a :class:`FourLevelPageTable` through walk caches.

    One walker instance fronts one page table.  ``cache_entries`` is
    split evenly across the three interior levels (paper: 32 entries
    total), with at least one entry each when caching is enabled.
    """

    def __init__(self, table: FourLevelPageTable, cache_entries: int = 32,
                 name: str = "ptw") -> None:
        self.table = table
        self.name = name
        # _caches[depth - 1] caches the entries resolving ``depth``
        # interior levels (depth 1: PGD entries .. depth 3: PMD).
        caches: List[SetAssociativeCache] = []
        if cache_entries > 0:
            per_level = max(1, cache_entries // 3)
            for depth in range(1, 4):
                caches.append(SetAssociativeCache(
                    f"{name}.wc{depth}", n_sets=max(1, per_level // 4),
                    associativity=min(4, per_level)))
        self._caches: Tuple[SetAssociativeCache, ...] = tuple(caches)
        # Completing interior level L (0: PGD .. 2: PMD) resolves depth
        # L + 1, cached in caches[L] under the key vpn >> 9 * (3 - L).
        # Probes run deepest first, as (cache, key shift, depth).
        self._probes = tuple(
            (cache, _BITS_PER_LEVEL * (3 - level), level + 1)
            for level, cache in enumerate(caches))[::-1]

    # ------------------------------------------------------------------
    @hot_path
    def walk(self, vpn: int) -> Tuple[int, Tuple[int, ...]]:
        """Resolve ``vpn``; returns ``(frame, addrs)``, where ``addrs``
        holds the entry addresses that touch memory, root to leaf.

        Walk caches are probed deepest-first; every interior level the
        walk does traverse is installed into its cache as its probe
        misses.

        Raises
        ------
        TranslationFault
            If ``vpn`` is unmapped.
        """
        try:
            frame, addrs = self.table._walks[vpn]
        except KeyError:
            # Unmapped: the tree descent raises TranslationFault.
            self.table.walk_entries(vpn)
            raise

        # Deepest interior level first: a PMD hit (depth 3) jumps
        # straight to the PTE access.  Every level probed before the
        # hit (all three on no hit) is one the walk traverses, so its
        # miss installs the key in place (LRU; the key is absent, and
        # the levels' caches are distinct stores).
        skipped = 0
        for cache, shift, depth in self._probes:
            key = vpn >> shift
            mask = cache._mask
            lines = cache._sets[key & mask if mask >= 0
                                else key % cache.n_sets]
            if lines.pop(key, None) is not None:
                cache.hits += 1
                lines[key] = True
                skipped = depth
                break
            cache.misses += 1
            if len(lines) >= cache.associativity:
                for victim in lines:
                    break
                del lines[victim]
            lines[key] = True
        return frame, addrs[skipped:]

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Flush all walk caches (TLB-shootdown side effect)."""
        for cache in self._caches:
            cache.clear()

    @property
    def cache_probes(self) -> int:
        """Total walk-cache tag probes (telemetry)."""
        return sum(cache.accesses for cache in self._caches)
