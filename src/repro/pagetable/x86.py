"""A four-level hierarchical page table (PGD/PUD/PMD/PTE, Figure 1a).

The table mirrors x86-64 radix paging: a 48-bit virtual address is
split into a 12-bit page offset and four 9-bit level indices.  Interior
tables are allocated lazily from a frame-allocator callback, so the
*addresses* of the entries touched during a walk are real simulated
physical addresses — the walker charges memory accesses against them.

A leaf slot of the radix tree holds the mapped frame number itself: no
paging policy reads flags or reference bits, so an entry is its frame.
Besides the tree the table keeps one exact store of plain ints, the
walk store ``vpn -> (frame, (a0, a1, a2, a3))``, where ``a0``..``a3``
are the byte addresses of the PGD, PUD, PMD and PTE entries a walk
reads.  :meth:`FourLevelPageTable.map` records them during its descent
and :meth:`FourLevelPageTable.unmap` drops them, so the store's keys
are exactly the tree's mapped leaves.  :meth:`~FourLevelPageTable.lookup`
and ``in`` answer from it, and the hot readers probe it in place, once
each: :class:`~repro.pagetable.walker.PageTableWalker` per walk, a
node's demand-paging check per event, the broker's first-touch grant
and E-FAM's system-table probe per FAM access.

:meth:`~FourLevelPageTable.walk_entries` still descends the tree and
returns :class:`WalkStep` records; the reference path
(:mod:`repro.core.refpath`) walks through it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import TranslationFault

__all__ = ["FourLevelPageTable", "WalkStep", "LEVEL_NAMES"]

#: Names of the levels from root to leaf, as in the paper's Figure 1.
LEVEL_NAMES = ("PGD", "PUD", "PMD", "PTE")

_BITS_PER_LEVEL = 9
_ENTRIES_PER_TABLE = 1 << _BITS_PER_LEVEL
_ENTRY_BYTES = 8
_PAGE_SHIFT = 12

#: Derived shift/mask constants for the unrolled VPN split — pinned to
#: _BITS_PER_LEVEL so a level-geometry change cannot desync map()'s
#: descent from walk_entries and the walker's keys.
_INDEX_MASK = _ENTRIES_PER_TABLE - 1
_SHIFT_L0 = 3 * _BITS_PER_LEVEL
_SHIFT_L1 = 2 * _BITS_PER_LEVEL
_SHIFT_L2 = _BITS_PER_LEVEL


class WalkStep(NamedTuple):
    """One level of a page walk.

    Attributes
    ----------
    level:
        0 (PGD) .. 3 (PTE).
    entry_addr:
        Physical address of the 8-byte entry read at this level.
    table_base:
        Physical base address of the table page being indexed.
    """

    level: int
    entry_addr: int
    table_base: int


class _Table:
    """One 4 KB table page: 512 slots holding child tables (interior
    levels) or frame numbers (the PTE level)."""

    __slots__ = ("base_addr", "slots")

    def __init__(self, base_addr: int) -> None:
        self.base_addr = base_addr
        self.slots: Dict[int, object] = {}

    def entry_addr(self, index: int) -> int:
        return self.base_addr + index * _ENTRY_BYTES


class FourLevelPageTable:
    """A radix page table whose table pages occupy simulated frames.

    Parameters
    ----------
    frame_allocator:
        Zero-argument callable returning the physical base address of a
        fresh 4 KB frame each time an interior table page is needed.
        Wiring this to the node's allocator means page-table pages land
        in local DRAM or FAM according to the allocation policy —
        exactly the effect behind the E-FAM AT traffic in Figure 4.
    name:
        Label for diagnostics.
    """

    def __init__(self, frame_allocator: Callable[[], int],
                 name: str = "pagetable") -> None:
        self.name = name
        self._allocate_frame = frame_allocator
        self._root = _Table(self._allocate_frame())
        # Walk store: every mapped VPN's frame and the addresses of the
        # four entries its walk reads.  Interior tables are never
        # freed, so those addresses hold until the VPN is remapped
        # (map() replaces them) or unmapped (unmap() drops them).
        self._walks: Dict[int, Tuple[int, Tuple[int, int, int, int]]] = {}

    # ------------------------------------------------------------------
    # Index math
    # ------------------------------------------------------------------
    @staticmethod
    def split_vpn(vpn: int) -> List[int]:
        """Split a virtual page number into the four level indices."""
        return [(vpn >> _SHIFT_L0) & _INDEX_MASK,
                (vpn >> _SHIFT_L1) & _INDEX_MASK,
                (vpn >> _SHIFT_L2) & _INDEX_MASK,
                vpn & _INDEX_MASK]

    @property
    def mapped_pages(self) -> int:
        """Number of mapped VPNs."""
        return len(self._walks)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map(self, vpn: int, frame: int) -> None:
        """Install ``vpn -> frame``; builds interior tables on demand.

        Remapping an existing page replaces its frame (as an OS would
        on COW etc.).
        """
        # Unrolled descent: interior tables are allocated root to leaf,
        # and the entry address read at each level goes to the store.
        root = self._root
        i0 = (vpn >> _SHIFT_L0) & _INDEX_MASK
        i1 = (vpn >> _SHIFT_L1) & _INDEX_MASK
        i2 = (vpn >> _SHIFT_L2) & _INDEX_MASK
        i3 = vpn & _INDEX_MASK
        pud = root.slots.get(i0)
        if pud is None:
            pud = root.slots[i0] = _Table(self._allocate_frame())
        pmd = pud.slots.get(i1)
        if pmd is None:
            pmd = pud.slots[i1] = _Table(self._allocate_frame())
        pte = pmd.slots.get(i2)
        if pte is None:
            pte = pmd.slots[i2] = _Table(self._allocate_frame())
        pte.slots[i3] = frame
        self._walks[vpn] = (frame, (root.base_addr + i0 * _ENTRY_BYTES,
                                    pud.base_addr + i1 * _ENTRY_BYTES,
                                    pmd.base_addr + i2 * _ENTRY_BYTES,
                                    pte.base_addr + i3 * _ENTRY_BYTES))

    def unmap(self, vpn: int) -> bool:
        """Remove the mapping for ``vpn``; returns whether it existed.

        Interior tables are retained (real OSes rarely free them
        either); only the leaf slot is dropped.
        """
        if self._walks.pop(vpn, None) is None:
            return False
        indices = self.split_vpn(vpn)
        table = self._root
        for index in indices[:3]:
            table = table.slots[index]
        del table.slots[indices[3]]
        return True

    def lookup(self, vpn: int) -> Optional[int]:
        """The frame ``vpn`` maps to, or ``None`` when unmapped."""
        walk = self._walks.get(vpn)
        return None if walk is None else walk[0]

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._walks

    # ------------------------------------------------------------------
    # Walking
    # ------------------------------------------------------------------
    def walk_entries(self, vpn: int) -> Tuple[List[WalkStep], int]:
        """Descend the tree for ``vpn``: the four :class:`WalkStep`
        reads a hardware walker performs, and the frame the leaf slot
        holds.

        Raises
        ------
        TranslationFault
            If any level is unmapped (a page fault the simulated OS
            failed to resolve before the access).
        """
        indices = self.split_vpn(vpn)
        steps: List[WalkStep] = []
        table = self._root
        for level in range(3):
            steps.append(WalkStep(level, table.entry_addr(indices[level]),
                                  table.base_addr))
            child = table.slots.get(indices[level])
            if not isinstance(child, _Table):
                raise TranslationFault(
                    f"{self.name}: vpn {vpn:#x} unmapped at level "
                    f"{LEVEL_NAMES[level]}")
            table = child
        steps.append(WalkStep(3, table.entry_addr(indices[3]),
                              table.base_addr))
        frame = table.slots.get(indices[3])
        if frame is None:
            raise TranslationFault(f"{self.name}: vpn {vpn:#x} has no PTE")
        return steps, frame

    def translate(self, vpn: int) -> int:
        """Frame number for ``vpn`` (raises on unmapped)."""
        frame = self.lookup(vpn)
        if frame is None:
            raise TranslationFault(f"{self.name}: vpn {vpn:#x} not present")
        return frame

    # ------------------------------------------------------------------
    def iter_mappings(self) -> Iterator[Tuple[int, int]]:
        """Yield every ``(vpn, frame)`` pair, descending the tree."""
        def _recurse(table: _Table, prefix: int, level: int):
            for index, slot in table.slots.items():
                vpn_part = (prefix << _BITS_PER_LEVEL) | index
                if level == 3:
                    yield vpn_part, slot
                else:
                    yield from _recurse(slot, vpn_part, level + 1)
        yield from _recurse(self._root, 0, 0)
