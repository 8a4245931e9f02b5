"""The authoritative access-control metadata contents.

:class:`AcmStore` models what actually sits in the FAM's metadata
region: one :class:`~repro.acm.metadata.AcmEntry` per 4 KB page plus
the per-1GB :class:`~repro.acm.bitmap.SharedPageBitmap` objects.  The
memory broker writes it when granting/revoking pages; the STU
verification unit reads it (charging FAM accesses for the block
fetches, which the caller times).

The store enforces the threat model's invariant at the lowest level:
a page with no entry belongs to nobody and every access to it fails
verification.

:meth:`AcmStore.check` runs on every verified FAM access, so it is a
``@hot_path`` with its helpers inlined: one usable-range check (a
metadata-region address still raises ``ConfigError`` through
:meth:`~repro.acm.layout.FamLayout._check_usable`), one dict probe, an
owner compare against the shared marker hoisted at construction, and a
permission test against a precomputed ``(class, rights)`` table.  The
composed seed body (``page_number`` -> ``is_shared`` ->
``perm_code_allows``) is kept in :mod:`repro.core.refpath`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.acm.bitmap import SharedPageBitmap
from repro.acm.layout import FamLayout
from repro.acm.metadata import (
    AcmEntry,
    Permission,
    perm_code_allows,
    shared_owner_marker,
)
from repro.core.hotpath import hot_path
from repro.errors import AccessViolationError

__all__ = ["AcmStore"]

#: ``_PERMITS[code][needed]``: whether permission class ``code`` grants
#: every right in the ``needed`` mask (0..7).  Indexing by the
#: ``Permission`` itself skips ``IntFlag``'s Python-level ``.value``.
_PERMITS = tuple(
    tuple(perm_code_allows(code, Permission(needed))
          for needed in range(8))
    for code in range(4))


class AcmStore:
    """Owner/permission truth for every allocated FAM page."""

    def __init__(self, layout: FamLayout) -> None:
        self.layout = layout
        self._entries: Dict[int, AcmEntry] = {}
        self._bitmaps: Dict[int, SharedPageBitmap] = {}
        # Layout geometry and the shared marker, hoisted for check().
        self._usable_end = layout.metadata_base
        self._page_bytes = layout.page_bytes
        self._shared_marker = shared_owner_marker(layout.acm_bits)

    # ------------------------------------------------------------------
    # Broker-side mutation
    # ------------------------------------------------------------------
    def set_owner(self, fam_page: int, node_id: int,
                  perm_code: int) -> None:
        """Record ``fam_page`` as exclusively owned by ``node_id``."""
        self._entries[fam_page] = AcmEntry(owner=node_id,
                                           perm_code=perm_code)

    def clear(self, fam_page: int) -> None:
        """Mark ``fam_page`` unallocated (all accesses will fail)."""
        self._entries.pop(fam_page, None)

    def mark_shared(self, fam_page: int) -> None:
        """Flip a page's owner field to the shared marker.

        The paper sets *all* 4 KB sub-page entries of a shared 1 GB
        page to the marker; callers iterate the page range.
        """
        current = self._entries.get(fam_page)
        perm = current.perm_code if current else 0
        self._entries[fam_page] = AcmEntry(owner=self._shared_marker,
                                           perm_code=perm)

    def bitmap_for_region(self, region: int) -> SharedPageBitmap:
        """The region's bitmap, created lazily (the physical 8 KB is
        dedicated whether used or not)."""
        bitmap = self._bitmaps.get(region)
        if bitmap is None:
            bitmap = SharedPageBitmap(region)
            self._bitmaps[region] = bitmap
        return bitmap

    # ------------------------------------------------------------------
    # STU-side reads
    # ------------------------------------------------------------------
    def entry_of(self, fam_page: int) -> Optional[AcmEntry]:
        return self._entries.get(fam_page)

    # ------------------------------------------------------------------
    # Verification (the actual access-control decision)
    # ------------------------------------------------------------------
    @hot_path
    def check(self, node_id: int, fam_addr: int,
              needed: Permission) -> Tuple[bool, bool]:
        """Verify an access without raising.

        Returns ``(allowed, consulted_bitmap)`` — the second element
        tells the timing model whether a bitmap block fetch was needed
        (only for shared pages).

        Raises
        ------
        ConfigError
            When ``fam_addr`` lies outside the usable region (the
            metadata and bitmap regions are never application pages).
        """
        if not 0 <= fam_addr < self._usable_end:
            self.layout._check_usable(fam_addr)
        entry = self._entries.get(fam_addr // self._page_bytes)
        if entry is None:
            return False, False
        owner = entry.owner
        if owner == self._shared_marker:
            region = self.layout.region_of(fam_addr)
            bitmap = self.bitmap_for_region(region)
            return bitmap.allows(node_id, needed), True
        if owner != node_id:
            return False, False
        return _PERMITS[entry.perm_code & 0x3][needed], False

    def verify(self, node_id: int, fam_addr: int,
               needed: Permission) -> bool:
        """Like :meth:`check` but raises on denial.

        Raises
        ------
        AccessViolationError
            When the page is unallocated, owned by another node, or
            the permission class denies the requested rights.
        """
        allowed, consulted_bitmap = self.check(node_id, fam_addr, needed)
        if not allowed:
            raise AccessViolationError(
                f"node {node_id} denied {needed!r} at FAM {fam_addr:#x}",
                node_id=node_id, fam_addr=fam_addr)
        return consulted_bitmap
