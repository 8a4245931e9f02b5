"""The FAM translator unit in the node's memory controller.

Responsibilities (Section III-C): fetch a translation row from the
in-DRAM FAM translation cache for every FAM-bound request, match tags,
rewrite hits to FAM addresses (setting the ``V`` flag), forward misses
to the STU unverified, and update the cache when mapping responses
arrive (a 64 B read-modify-write of the row).  Tracking outstanding
mappings so responses can be re-addressed (Figure 7c) is not
modelled: a response resolves in the call that issued its request,
so the list would have no timing or result effect.

The translation cache occupies the top of local DRAM; every lookup is
a genuine DRAM access — the cost the paper accepts in exchange for the
cache's capacity ("the local memory is accessed for every FAM access
for the translation").

:meth:`FamTranslator.lookup_fast` and :meth:`FamTranslator.install`
match and fill the cache's tag store in place, one DRAM row per set;
only an install that must pick a random victim (or replace a resident
mapping) calls :meth:`TranslationCache.install`.
:mod:`repro.core.refpath` keeps the composed seed calls
(``TranslationCache.lookup`` and the seed fill).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config.system import TranslationCacheConfig
from repro.mem.device import DramDevice
from repro.sim.stats import Stats
from repro.translator.translation_cache import TranslationCache

__all__ = ["FamTranslator"]

#: One-cycle concurrent tag match (four comparators + mux, Figure 7b).
_TAG_MATCH_NS = 0.5


class FamTranslator:
    """DeACT's node-resident (but unverified) system translation."""

    def __init__(self, config: TranslationCacheConfig, dram: DramDevice,
                 region_base: int, page_bytes: int = 4096,
                 name: str = "fam_translator", seed: int = 0) -> None:
        self.config = config
        self.dram = dram
        self.region_base = region_base
        self.page_bytes = page_bytes
        self.name = name
        self.cache = TranslationCache(config, name=f"{name}.tcache",
                                      seed=seed)
        # The cache's tag store (one set per DRAM row), probed and
        # filled in place, and the row-address arithmetic, memoized
        # off the per-access path.
        self._store = self.cache._cache
        self._n_rows = config.n_sets
        self._row_bytes = config.entry_bytes * config.associativity
        self.stats = Stats(name)
        # Counter dict hoisted off the per-lookup path.
        self._stat_counters = self.stats._counters

    # ------------------------------------------------------------------
    def row_address(self, node_page: int) -> int:
        """DRAM address of the 64 B row holding ``node_page``'s set."""
        return self.region_base + self.cache.row_offset_bytes(node_page)

    # ------------------------------------------------------------------
    def lookup_fast(self, node_page: int,
                    now: float) -> Tuple[Optional[int], float]:
        """Translate ``node_page``: one DRAM row fetch + tag match.

        Returns ``(fam_page, completion_ns)``.  ``fam_page`` is
        ``None`` on a miss — the caller must forward the request to
        the STU with ``V=0`` for a system-page-table walk.  This runs
        once per FAM-bound DeACT request.  The row's tags are matched
        in place; random replacement keeps no recency, so a hit leaves
        the row's order alone.
        """
        index = node_page % self._n_rows
        t = self.dram.access(self.region_base + index * self._row_bytes,
                             now) + _TAG_MATCH_NS
        store = self._store
        fam_page = store._sets[index].get(node_page)
        if fam_page is None:
            store.misses += 1
            self._stat_counters["misses"] += 1.0
        else:
            store.hits += 1
            self._stat_counters["hits"] += 1.0
        return fam_page, t

    def install(self, node_page: int, fam_page: int, now: float) -> float:
        """Apply a mapping response: read-modify-write of the row.

        Returns the completion time of the write-back; callers may
        treat it as off the critical path (the pending request was
        already forwarded by the STU), but the DRAM bank time is real
        and contends with demand traffic.  A free way of the row is
        filled in place; a resident mapping or a full row goes through
        :meth:`TranslationCache.install`, whose seeded draw picks the
        victim.
        """
        index = node_page % self._n_rows
        row = self.region_base + index * self._row_bytes
        read_done = self.dram.access(row, now)
        write_done = self.dram.access(row, read_done)
        store = self._store
        lines = store._sets[index]
        if node_page in lines or len(lines) >= store.associativity:
            self.cache.install(node_page, fam_page)
        else:
            lines[node_page] = fam_page
        return write_done

    # ------------------------------------------------------------------
    def shootdown(self, node_page: int, now: float) -> float:
        """Invalidate one mapping (job migration): a DRAM row write."""
        self.cache.invalidate(node_page)
        self.stats.incr("shootdowns")
        return self.dram.access(self.row_address(node_page), now)

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate
