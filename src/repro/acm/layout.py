"""FAM address-space layout: usable memory, metadata, bitmaps.

Figure 5 carves the global memory into three regions.  The key property
the STU relies on is that *the metadata address of any FAM page is
derivable from the FAM address alone*: for 16-bit entries, the 64-byte
block at ``MTAdd + page/32 * 64`` covers pages ``32k .. 32k+31``.  The
same derivation generalizes to 8- and 32-bit entries (128 and 16 pages
per block respectively).

The per-1GB shared-page bitmaps live in their own region: 64 Kbits
(8 KB) per 1 GB of FAM regardless of whether the region currently backs
a shared large page ("to enable easier indexing of metadata, we
dedicate a bitmap for each 1 GB physical region").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.system import BLOCK_BYTES, GIB, PAGE_BYTES
from repro.errors import ConfigError

__all__ = ["FamLayout"]

_BITMAP_BYTES_PER_REGION = 8 * 1024  # 64 Kbits
_REGION_BYTES = GIB


@dataclass(frozen=True)
class FamLayout:
    """Derived carve-out of a FAM module's physical address space.

    Layout (low to high): usable pages, then ACM entries, then shared
    bitmaps.  All boundaries are page aligned.
    """

    capacity_bytes: int
    acm_bits: int = 16
    page_bytes: int = PAGE_BYTES
    block_bytes: int = BLOCK_BYTES

    # Derived geometry, computed once (these sit on the verification
    # hot path; recomputing them per access dominated early profiles).
    total_pages: int = field(init=False, repr=False, default=0)
    pages_per_block: int = field(init=False, repr=False, default=0)
    metadata_bytes: int = field(init=False, repr=False, default=0)
    n_regions: int = field(init=False, repr=False, default=0)
    bitmap_bytes: int = field(init=False, repr=False, default=0)
    metadata_base: int = field(init=False, repr=False, default=0)
    bitmap_base: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError("FAM capacity must be positive")
        if self.acm_bits not in (8, 16, 32):
            raise ConfigError(f"unsupported ACM width {self.acm_bits}")
        if self.capacity_bytes % self.page_bytes:
            raise ConfigError("FAM capacity must be page aligned")
        set_field = object.__setattr__  # frozen dataclass
        set_field(self, "total_pages", self.capacity_bytes // self.page_bytes)
        # 4 KB pages whose ACM shares one 64 B metadata block (32 for
        # 16-bit entries — the paper's spatial-locality unit).
        set_field(self, "pages_per_block",
                  (self.block_bytes * 8) // self.acm_bits)
        raw = (self.total_pages * self.acm_bits + 7) // 8
        set_field(self, "metadata_bytes", _round_up(raw, self.page_bytes))
        set_field(self, "n_regions",
                  (self.capacity_bytes + _REGION_BYTES - 1) // _REGION_BYTES)
        set_field(self, "bitmap_bytes",
                  _round_up(self.n_regions * _BITMAP_BYTES_PER_REGION,
                            self.page_bytes))
        set_field(self, "metadata_base",
                  self.capacity_bytes - self.metadata_bytes -
                  self.bitmap_bytes)
        set_field(self, "bitmap_base",
                  self.capacity_bytes - self.bitmap_bytes)
        if self.usable_bytes <= 0:
            raise ConfigError("FAM too small to hold its own metadata")

    # ------------------------------------------------------------------
    # Region geometry
    # ------------------------------------------------------------------
    @property
    def usable_bytes(self) -> int:
        """Bytes available for application pages (``MTAdd``/
        ``metadata_base`` is the first non-usable byte)."""
        return self.metadata_base

    @property
    def usable_pages(self) -> int:
        return self.usable_bytes // self.page_bytes

    @property
    def overhead_fraction(self) -> float:
        """Metadata + bitmap overhead as a fraction of capacity (the
        paper calls the bitmap share 'negligible, less than 0.0001%'
        — of the bitmap alone relative to region size)."""
        return (self.metadata_bytes + self.bitmap_bytes) / self.capacity_bytes

    # ------------------------------------------------------------------
    # Address derivation (what the STU computes in hardware)
    # ------------------------------------------------------------------
    def page_number(self, fam_addr: int) -> int:
        self._check_usable(fam_addr)
        return fam_addr // self.page_bytes

    def acm_entry_addr(self, fam_addr: int) -> int:
        """Byte address of the ACM entry governing ``fam_addr``."""
        page = self.page_number(fam_addr)
        return self.metadata_base + (page * self.acm_bits) // 8

    def acm_block_addr(self, fam_addr: int) -> int:
        """Address of the 64 B metadata block covering ``fam_addr``'s
        page — the unit the STU fetches and caches."""
        entry = self.acm_entry_addr(fam_addr)
        return entry - (entry % self.block_bytes)

    def region_of(self, fam_addr: int) -> int:
        """1 GB region index of ``fam_addr``."""
        self._check_usable(fam_addr)
        return fam_addr // _REGION_BYTES

    def bitmap_block_addr(self, fam_addr: int, node_id: int) -> int:
        """Address of the 64 B bitmap block holding ``node_id``'s bits
        for ``fam_addr``'s region (4 bits per node)."""
        region_base = self.bitmap_base + self.region_of(fam_addr) * \
            _BITMAP_BYTES_PER_REGION
        byte = (node_id * 4) // 8
        addr = region_base + byte
        return addr - (addr % self.block_bytes)

    def _check_usable(self, fam_addr: int) -> None:
        if not 0 <= fam_addr < self.metadata_base:
            raise ConfigError(
                f"FAM address {fam_addr:#x} outside usable region "
                f"[0, {self.metadata_base:#x})")


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple
