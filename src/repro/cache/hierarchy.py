"""The node's three-level data cache hierarchy (Table II).

The hierarchy is probed with *node physical* block numbers through
:meth:`CacheHierarchy.access_fast`, which returns the level that served
the access, the accumulated on-chip latency and any dirty LLC victims
to write back; on an LLC miss the caller sends the request down the
memory path (local DRAM or the FAM translation machinery).  Each
level's payload is the line's dirty bit.  The node's per-event loop
calls :meth:`~CacheHierarchy.access_fast` once per page-walk step and,
having probed L1 itself, :meth:`~CacheHierarchy.access_after_l1_miss`
once per data L1 miss; no node-level helper sits in between.

The paper assumes "L1, L2, and L3 caches are inclusive".  The model
enforces that only partly:

* an L3 eviction back-invalidates L1 and L2, and a full miss fills all
  three levels, so L1 and L2 stay subsets of L3 across L3 evictions;
* an L2 eviction does **not** back-invalidate L1, so L1 is not a
  subset of L2: a line can stay in L1 after L2 dropped it;
* on an L2-hit or L3-hit refill the victims the inner fills displace
  are dropped unexamined, so a dirty L1 (or L2) victim loses its dirty
  bit and its write-back never happens.  Only a full miss passes a
  dirty inner victim to the next level out.

Write-backs of dirty LLC victims are surfaced to the caller so they
generate real memory traffic.  Fixing the two gaps above changes
results, so it is a model change of its own (see ROADMAP.md), pinned
until then by ``tests/test_cache_hierarchy.py``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.config.system import CacheConfig
from repro.core.hotpath import hot_path

__all__ = ["CacheHierarchy"]

_NO_WRITEBACKS: Tuple[int, ...] = ()


class CacheHierarchy:
    """L1 -> L2 -> L3 lookup, inclusive of L3 (see the module
    docstring), LRU at every level."""

    def __init__(self, l1: CacheConfig, l2: CacheConfig, l3: CacheConfig,
                 name: str = "node") -> None:
        self.block_bytes = l1.block_bytes
        self.block_shift = l1.block_bytes.bit_length() - 1
        self.configs = (l1, l2, l3)
        self.levels: List[SetAssociativeCache[bool]] = [
            SetAssociativeCache(f"{name}.{cfg.name}", cfg.n_sets,
                                cfg.associativity)
            for cfg in self.configs
        ]
        self._l1, self._l2, self._l3 = self.levels
        # Floats, whatever the configs hold: the node-side pass records
        # an on-chip event as the bare latency, told apart by its type.
        self.latencies = tuple(float(cfg.latency_ns) for cfg in self.configs)
        self._lat1 = self.latencies[0]
        self._lat12 = self.latencies[0] + self.latencies[1]
        self._lat123 = sum(self.latencies)

    # ------------------------------------------------------------------
    def access_fast(self, block: int,
                    write: bool) -> Tuple[int, float, Tuple[int, ...]]:
        """Probe block number ``block``; fill on a miss.

        Returns ``(level, latency_ns, writebacks)``: ``level`` is 1, 2
        or 3 for the level that hit and 0 when the access missed every
        level and must go to memory; ``latency_ns`` sums the lookup
        latencies down to the serving level (all three on a full
        miss), as in a serial-lookup hierarchy; ``writebacks`` holds
        the byte addresses of dirty LLC victims the fill displaced.
        This is the node's page-walk-step probe; the per-event loop
        inlines the L1 probe itself and calls
        :meth:`access_after_l1_miss`.  The L1 probe is inlined here
        too (``get_line``'s body) because most accesses end there.
        """
        l1 = self._l1
        mask = l1._mask
        lines = l1._sets[block & mask if mask >= 0 else block % l1.n_sets]
        if block in lines:
            l1.hits += 1
            if write:
                lines[block] = True
            lines.move_to_end(block)
            return 1, self._lat1, _NO_WRITEBACKS
        l1.misses += 1
        return self.access_after_l1_miss(block, write)

    @hot_path
    def access_after_l1_miss(
            self, block: int,
            write: bool) -> Tuple[int, float, Tuple[int, ...]]:
        """:meth:`access_fast` continuation for callers that probed
        (and counted) L1 themselves — the fully inlined single-node
        loop.

        The L2 and L3 probes and the refill are one pass over the
        levels' sets, with ``get_line``'s hit/miss accounting and
        ``fill_line``'s LRU body inlined, and no call into a tag store.
        ``block`` is absent from every level the refill writes (each
        was just probed and missed), so the fills skip the
        replace-in-place check.  A full miss (level 0) fills L3, L2 and
        L1 in that order: an L3 victim is back-invalidated from L1 and
        L2 and, if dirty, written back; a dirty L2 or L1 victim is
        absorbed in place by the next level out, with the full
        ``fill_line`` body, since the victim may already be resident
        there (it is marked dirty and moved to the MRU end) or not (it
        is installed dirty, and a line it displaces is dropped
        unexamined).  An L2 or L3 hit refills the inner levels and
        drops their victims unexamined (see the module docstring).
        """
        writebacks = _NO_WRITEBACKS
        l2 = self._l2
        mask = l2._mask
        l2_lines = l2._sets[block & mask if mask >= 0
                            else block % l2.n_sets]
        if block in l2_lines:
            l2.hits += 1
            if write:
                l2_lines[block] = True
            l2_lines.move_to_end(block)
            level = 2
            latency = self._lat12
        else:
            l2.misses += 1
            l3 = self._l3
            mask = l3._mask
            l3_lines = l3._sets[block & mask if mask >= 0
                                else block % l3.n_sets]
            latency = self._lat123
            if block in l3_lines:
                l3.hits += 1
                if write:
                    l3_lines[block] = True
                l3_lines.move_to_end(block)
                level = 3
            else:
                l3.misses += 1
                level = 0
                if len(l3_lines) >= l3.associativity:
                    victim, dirty = l3_lines.popitem(False)
                    # Anything leaving L3 leaves L1 and L2 too.
                    l1 = self._l1
                    mask = l1._mask
                    l1._sets[victim & mask if mask >= 0
                             else victim % l1.n_sets].pop(victim, None)
                    mask = l2._mask
                    l2._sets[victim & mask if mask >= 0
                             else victim % l2.n_sets].pop(victim, None)
                    if dirty:
                        writebacks = (victim * self.block_bytes,)
                l3_lines[block] = write
            if len(l2_lines) >= l2.associativity:
                victim, dirty = l2_lines.popitem(False)
                if dirty and not level:
                    # Absorb the dirty L2 victim into L3 in place.
                    mask = l3._mask
                    lines = l3._sets[victim & mask if mask >= 0
                                     else victim % l3.n_sets]
                    if victim in lines:
                        lines[victim] = True
                        lines.move_to_end(victim)
                    else:
                        if len(lines) >= l3.associativity:
                            lines.popitem(False)
                        lines[victim] = True
            l2_lines[block] = write
        l1 = self._l1
        mask = l1._mask
        l1_lines = l1._sets[block & mask if mask >= 0
                            else block % l1.n_sets]
        if len(l1_lines) >= l1.associativity:
            victim, dirty = l1_lines.popitem(False)
            if dirty and not level:
                # Absorb the dirty L1 victim into L2 in place.
                mask = l2._mask
                lines = l2._sets[victim & mask if mask >= 0
                                 else victim % l2.n_sets]
                if victim in lines:
                    lines[victim] = True
                    lines.move_to_end(victim)
                else:
                    if len(lines) >= l2.associativity:
                        lines.popitem(False)
                    lines[victim] = True
        l1_lines[block] = write
        return level, latency, writebacks

    # ------------------------------------------------------------------
    def contains(self, addr: int) -> Optional[int]:
        """Innermost level holding ``addr`` (1-based), or ``None``."""
        block = addr // self.block_bytes
        for index, cache in enumerate(self.levels):
            if block in cache:
                return index + 1
        return None

    def llc_miss_count(self) -> int:
        return self._l3.misses
