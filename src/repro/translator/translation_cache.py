"""The in-DRAM FAM translation cache contents.

Geometry per Section III-C: a 64-byte DRAM row holds four mapping
entries of 104 bits each (52-bit node-page tag + 52-bit FAM page), so
the cache is naturally four-way set associative with the set selected
by ``node_page % n_sets``.  Replacement within a fetched row is random
— the paper rejects smarter policies because their status bits would
cost extra DRAM writes per FAM access.

This class models the *contents*; DRAM timing for lookups and updates
is charged by :class:`~repro.translator.fam_translator.FamTranslator`.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.cache import SetAssociativeCache
from repro.config.system import TranslationCacheConfig
from repro.sim.stats import Stats

__all__ = ["TranslationCache"]


class TranslationCache:
    """Node-page -> FAM-page mappings resident in local DRAM."""

    def __init__(self, config: TranslationCacheConfig,
                 name: str = "tcache", seed: int = 0) -> None:
        self.config = config
        self.name = name
        self._cache: SetAssociativeCache[int] = SetAssociativeCache(
            name, config.n_sets, config.associativity, random_seed=seed)
        self.stats = Stats(name)

    @property
    def n_sets(self) -> int:
        return self.config.n_sets

    def set_index(self, node_page: int) -> int:
        """Set (DRAM row) holding ``node_page``'s mapping, obtained by
        'performing a modulus operation on node page number with the
        number of FAM translation cache sets'."""
        return node_page % self.config.n_sets

    def row_offset_bytes(self, node_page: int) -> int:
        """Byte offset of the set's 64 B row inside the cache region."""
        return self.set_index(node_page) * \
            (self.config.entry_bytes * self.config.associativity)

    # ------------------------------------------------------------------
    def lookup(self, node_page: int) -> Optional[int]:
        """Probe for a mapping; the four tags of the fetched row are
        compared concurrently (one cycle of comparators, Figure 7b)."""
        return self._cache.get_line(node_page)

    def install(self, node_page: int, fam_page: int) -> None:
        """Write a mapping into its row (random victim within the
        row's four entries)."""
        self._cache.fill_line(node_page, fam_page)

    def invalidate(self, node_page: int) -> bool:
        """Shoot down one mapping (job migration, Section VI)."""
        dropped = self._cache.invalidate(node_page)
        if dropped:
            self.stats.incr("invalidations")
        return dropped

    @property
    def hit_rate(self) -> float:
        """Figure 10's DeACT curve for this node."""
        return self._cache.hit_rate

    @property
    def probes(self) -> int:
        """Total tag probes (telemetry)."""
        return self._cache.accesses

    def __len__(self) -> int:
        return len(self._cache)
