"""The FAM translator unit in the node's memory controller.

Responsibilities (Section III-C): fetch a translation row from the
in-DRAM FAM translation cache for every FAM-bound request, match tags,
rewrite hits to FAM addresses (setting the ``V`` flag), forward misses
to the STU unverified, track outstanding mappings so responses can be
re-addressed, and update the cache when mapping responses arrive
(a 64 B read-modify-write of the row).

The translation cache occupies the top of local DRAM; every lookup is
a genuine DRAM access — the cost the paper accepts in exchange for the
cache's capacity ("the local memory is accessed for every FAM access
for the translation").
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config.system import TranslationCacheConfig
from repro.mem.device import DramDevice
from repro.mem.request import RequestKind
from repro.sim.stats import Stats
from repro.translator.outstanding import OutstandingMappingList
from repro.translator.translation_cache import TranslationCache

__all__ = ["FamTranslator"]

#: One-cycle concurrent tag match (four comparators + mux, Figure 7b).
_TAG_MATCH_NS = 0.5


class FamTranslator:
    """DeACT's node-resident (but unverified) system translation."""

    def __init__(self, config: TranslationCacheConfig, dram: DramDevice,
                 region_base: int, page_bytes: int = 4096,
                 outstanding_capacity: int = 128,
                 name: str = "fam_translator", seed: int = 0) -> None:
        self.config = config
        self.dram = dram
        self.region_base = region_base
        self.page_bytes = page_bytes
        self.name = name
        self.cache = TranslationCache(config, name=f"{name}.tcache",
                                      seed=seed)
        # Row-address arithmetic memoized off the per-access path.
        self._n_rows = config.n_sets
        self._row_bytes = config.entry_bytes * config.associativity
        self.outstanding = OutstandingMappingList(
            outstanding_capacity, name=f"{name}.outstanding")
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
        once per FAM-bound DeACT request.
        """
        row = self.region_base + (node_page % self._n_rows) * self._row_bytes
        served = self.dram.access(row, now, is_write=False,
                                  kind=RequestKind.NODE_PTW)
        t = served + _TAG_MATCH_NS
        fam_page = self.cache.lookup(node_page)
        if fam_page is None:
            self._stat_counters["misses"] += 1.0
        else:
            self._stat_counters["hits"] += 1.0
        return fam_page, t

    def install(self, node_page: int, fam_page: int, now: float) -> float:
        """Apply a mapping response: read-modify-write of the row.

        Returns the completion time of the write-back; callers may
        treat it as off the critical path (the pending request was
        already forwarded by the STU), but the DRAM bank time is real
        and contends with demand traffic.
        """
        row = self.row_address(node_page)
        read_done = self.dram.access(row, now, is_write=False,
                                     kind=RequestKind.NODE_PTW)
        write_done = self.dram.access(row, read_done, is_write=True,
                                      kind=RequestKind.NODE_PTW)
        self.cache.install(node_page, fam_page)
        self.stats.incr("updates")
        return write_done

    # ------------------------------------------------------------------
    def register_response_mapping(self, request_id: int, fam_addr: int,
                                  node_addr: int) -> None:
        """Track a response-expecting request (Figure 7c)."""
        self.outstanding.register(request_id, fam_addr, node_addr)

    # ------------------------------------------------------------------
    def shootdown(self, node_page: int, now: float) -> float:
        """Invalidate one mapping (job migration): a DRAM row write."""
        self.cache.invalidate(node_page)
        self.stats.incr("shootdowns")
        return self.dram.access(self.row_address(node_page), now,
                                is_write=True, kind=RequestKind.NODE_PTW)

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate
