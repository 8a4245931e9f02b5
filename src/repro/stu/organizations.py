"""STU cache way organizations (Figure 8).

All three organizations share the same physical budget — ``entries``
ways of ``52 + 52 + 16`` bits organized as ``n_sets x associativity``
(Table II: 1024 entries, 128 sets, 8 ways) — but spend it differently:

* :class:`IFamStuCache` (Fig. 8a): each way holds one full mapping:
  52-bit node-page tag, 52-bit FAM page, ACM.  Translation and access
  control hit or miss *together*.
* :class:`DeactWAcmCache` (Fig. 8b): translation moved to the node, so
  the 52 FAM-address bits are recycled to hold the ACM of
  ``52 // acm_bits`` additional *contiguous* pages (4 for 16-bit ACM,
  8 for 8-bit, 2 for 32-bit — the Figure 14 arithmetic): one way covers
  an aligned group of contiguous FAM pages.
* :class:`DeactNAcmCache` (Fig. 8c): tags shrink to 44 bits so each
  physical way splits into independent sub-ways, each holding one
  {tag, ACM} pair for an *arbitrary* page.  Default 2 sub-ways; the
  Figure 14 ablation explores 1 and 3.  In the paper 3 sub-ways need
  further tag squeezing that fits only an 8-bit ACM; this model does
  not enforce that: ``StuConfig.subways_per_way`` accepts 1, 2 or 3 at
  any ACM width.

The caches model presence/recency only; the authoritative metadata
values live in :class:`~repro.acm.store.AcmStore` (a simulator does
not need to duplicate the payload to get the timing right).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.config.system import StuConfig

__all__ = ["IFamStuCache", "DeactWAcmCache", "DeactNAcmCache"]


class IFamStuCache:
    """Figure 8a: combined {node page -> FAM page + ACM} cache."""

    name = "ifam"

    def __init__(self, config: StuConfig, label: str = "stu.ifam") -> None:
        self.config = config
        self._cache: SetAssociativeCache[int] = SetAssociativeCache(
            label, config.n_sets, config.associativity)

    def lookup(self, node_page: int) -> Optional[int]:
        """Probe for a node page; returns the FAM page or ``None``.

        A hit delivers translation *and* access control at once — the
        coupled design whose capacity limit DeACT attacks.
        """
        return self._cache.get_line(node_page)

    def install(self, node_page: int, fam_page: int) -> None:
        """Insert a mapping after a system-page-table walk."""
        self._cache.fill_line(node_page, fam_page)

    def invalidate_node_page(self, node_page: int) -> bool:
        return self._cache.invalidate(node_page)

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        return self._cache.hit_rate

    @property
    def probes(self) -> int:
        """Total tag probes (telemetry)."""
        return self._cache.accesses

    @property
    def coverage_pages(self) -> int:
        """Pages of reach at full occupancy (one per entry)."""
        return self.config.entries


class DeactWAcmCache:
    """Figure 8b: way-contiguous ACM-only cache.

    Keys are *groups* of ``pages_per_way`` aligned contiguous FAM
    pages: the tag identifies the group, the data bits hold every
    member's ACM.  Great when FAM pages are accessed contiguously —
    which random pool allocation defeats (Section III-D).
    """

    name = "deact-w"

    def __init__(self, config: StuConfig, label: str = "stu.deact_w") -> None:
        self.config = config
        # One tag per way still covers (1 + 52/acm_bits) pages in the
        # paper's packing; the dominant term is the recycled 52 bits.
        self.pages_per_way = config.contiguous_pages_per_way
        self._cache: SetAssociativeCache[bool] = SetAssociativeCache(
            label, config.n_sets, config.associativity)

    def _group(self, fam_page: int) -> int:
        return fam_page // self.pages_per_way

    def lookup(self, fam_page: int) -> bool:
        """Whether ``fam_page``'s ACM is resident."""
        return self._cache.get_line(self._group(fam_page)) is not None

    def install(self, fam_page: int) -> None:
        """Insert the ACM group covering ``fam_page`` after a metadata
        fetch from FAM."""
        self._cache.fill_line(self._group(fam_page), True)

    def invalidate_fam_page(self, fam_page: int) -> bool:
        return self._cache.invalidate(self._group(fam_page))

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        return self._cache.hit_rate

    @property
    def probes(self) -> int:
        """Total tag probes (telemetry)."""
        return self._cache.accesses

    @property
    def coverage_pages(self) -> int:
        """Pages of reach at full occupancy (entries x group size)."""
        return self.config.entries * self.pages_per_way


class DeactNAcmCache:
    """Figure 8c: non-contiguous sub-way ACM cache.

    Each physical way holds ``subways_per_way`` independent {44-bit
    tag, ACM} pairs, so the set's effective associativity multiplies
    and every cached page is chosen by recency, not adjacency.  Tag
    truncation to 44 bits restricts reach to 32 PB per node — far
    beyond any simulated footprint, so aliasing is not modelled.
    """

    name = "deact-n"

    def __init__(self, config: StuConfig, label: str = "stu.deact_n") -> None:
        self.config = config
        self.subways_per_way = config.subways_per_way
        effective_ways = config.associativity * self.subways_per_way
        self._cache: SetAssociativeCache[bool] = SetAssociativeCache(
            label, config.n_sets, effective_ways)

    def lookup(self, fam_page: int) -> bool:
        """Whether ``fam_page``'s ACM is resident."""
        return self._cache.get_line(fam_page) is not None

    def install(self, fam_page: int) -> None:
        self._cache.fill_line(fam_page, True)

    def invalidate_fam_page(self, fam_page: int) -> bool:
        return self._cache.invalidate(fam_page)

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        return self._cache.hit_rate

    @property
    def probes(self) -> int:
        """Total tag probes (telemetry)."""
        return self._cache.accesses

    @property
    def coverage_pages(self) -> int:
        return self.config.entries * self.subways_per_way
