"""A four-level hierarchical page table (PGD/PUD/PMD/PTE, Figure 1a).

The table mirrors x86-64 radix paging: a 48-bit virtual address is
split into a 12-bit page offset and four 9-bit level indices.  Interior
tables are allocated lazily from a frame-allocator callback, so the
*addresses* of the entries touched during a walk are real simulated
physical addresses — the walker charges memory accesses against them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import TranslationFault
from repro.memo import BoundedMemo
from repro.pagetable.entry import PageTableEntry, PTE_PRESENT, PTE_WRITE

__all__ = ["FourLevelPageTable", "WalkStep", "LEVEL_NAMES",
           "WALK_MEMO_CAP"]

#: Cap on the per-table walk-decomposition memo.  One entry per warm
#: VPN; 64 Ki entries cover a 256 MB working set of 4 KB pages — far
#: beyond any scaled harness trace — while bounding what a long
#: many-trace sweep can pin (each entry is ~5 small objects).
WALK_MEMO_CAP = 1 << 16

#: Names of the levels from root to leaf, as in the paper's Figure 1.
LEVEL_NAMES = ("PGD", "PUD", "PMD", "PTE")

_BITS_PER_LEVEL = 9
_ENTRIES_PER_TABLE = 1 << _BITS_PER_LEVEL
_ENTRY_BYTES = 8
_PAGE_SHIFT = 12

#: Derived shift/mask constants for the unrolled hot-path VPN split —
#: pinned to _BITS_PER_LEVEL so a level-geometry change cannot desync
#: the fast decomposition from walk_entries and the walker's keys.
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

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]


class _Table:
    """One 4 KB table page: 512 slots pointing at child tables or PTEs."""

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
        self.mapped_pages = 0
        self.table_pages = 1
        # Per-VPN memo of (walk steps, leaf entry): the radix descent
        # for a VPN is invariant until that VPN is remapped/unmapped
        # (interior tables are never freed), so the hot walker resolves
        # warm VPNs with one dict probe.  map() seeds a VPN's entry
        # with the descent it just made (replacing any stale one) and
        # unmap() drops it; LRU-bounded so long many-trace sweeps
        # cannot grow it without limit (eviction only costs a re-walk).
        self._walk_memo: BoundedMemo = BoundedMemo(WALK_MEMO_CAP)

    # ------------------------------------------------------------------
    # Index math
    # ------------------------------------------------------------------
    @staticmethod
    def split_vpn(vpn: int) -> List[int]:
        """Split a virtual page number into the four level indices."""
        # Unrolled: this runs once per page walk on the hot path.
        return [(vpn >> _SHIFT_L0) & _INDEX_MASK,
                (vpn >> _SHIFT_L1) & _INDEX_MASK,
                (vpn >> _SHIFT_L2) & _INDEX_MASK,
                vpn & _INDEX_MASK]

    @property
    def root_base(self) -> int:
        """Physical address of the root table (the CR3 contents)."""
        return self._root.base_addr

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map(self, vpn: int, frame: int,
            flags: int = PTE_PRESENT | PTE_WRITE) -> PageTableEntry:
        """Install ``vpn -> frame``; builds interior tables on demand.

        Returns the installed :class:`PageTableEntry`.  Remapping an
        existing page replaces its entry (as an OS would on COW etc.).
        """
        indices = self.split_vpn(vpn)
        steps: List[WalkStep] = []
        table = self._root
        for level in range(3):
            index = indices[level]
            steps.append(WalkStep(level, table.entry_addr(index),
                                  table.base_addr))
            child = table.slots.get(index)
            if child is None:
                child = _Table(self._allocate_frame())
                table.slots[index] = child
                self.table_pages += 1
            assert isinstance(child, _Table)
            table = child
        leaf_index = indices[3]
        steps.append(WalkStep(3, table.entry_addr(leaf_index),
                              table.base_addr))
        if leaf_index not in table.slots:
            self.mapped_pages += 1
        entry = PageTableEntry(frame=frame, flags=flags)
        table.slots[leaf_index] = entry
        # The descent just taken is the walk: seed the memo with it
        # (a remap replaces the stale entry).
        self._walk_memo.put(vpn, (steps, entry))
        return entry

    def unmap(self, vpn: int) -> bool:
        """Remove the mapping for ``vpn``; returns whether it existed.

        Interior tables are retained (real OSes rarely free them
        either); only the leaf entry is dropped.
        """
        indices = self.split_vpn(vpn)
        table = self._root
        for level in range(3):
            child = table.slots.get(indices[level])
            if not isinstance(child, _Table):
                return False
            table = child
        if indices[3] in table.slots:
            del table.slots[indices[3]]
            self.mapped_pages -= 1
            self._walk_memo.pop(vpn, None)
            return True
        return False

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """The leaf entry for ``vpn``, or ``None`` when unmapped."""
        indices = self.split_vpn(vpn)
        table = self._root
        for level in range(3):
            child = table.slots.get(indices[level])
            if not isinstance(child, _Table):
                return None
            table = child
        entry = table.slots.get(indices[3])
        return entry if isinstance(entry, PageTableEntry) else None

    def __contains__(self, vpn: int) -> bool:
        return self.lookup(vpn) is not None

    # ------------------------------------------------------------------
    # Walking
    # ------------------------------------------------------------------
    def walk(self, vpn: int) -> List[WalkStep]:
        """The four :class:`WalkStep` reads a hardware walker performs.

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
        if indices[3] not in table.slots:
            raise TranslationFault(f"{self.name}: vpn {vpn:#x} has no PTE")
        return steps

    def walk_entries_cached(
            self, vpn: int) -> Tuple[List[WalkStep], PageTableEntry]:
        """Memoized :meth:`walk_entries` (the hot walker's entry point).

        Callers must not mutate the returned step list.
        """
        hit = self._walk_memo.get(vpn)
        if hit is None:
            hit = self.walk_entries(vpn)
            self._walk_memo.put(vpn, hit)
        return hit

    def walk_entries(self, vpn: int) -> Tuple[List[WalkStep], PageTableEntry]:
        """One-pass variant of :meth:`walk` that also returns the leaf
        entry (avoids a second traversal)."""
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
        entry = table.slots.get(indices[3])
        if not isinstance(entry, PageTableEntry):
            raise TranslationFault(f"{self.name}: vpn {vpn:#x} has no PTE")
        return steps, entry

    def translate(self, vpn: int) -> int:
        """Frame number for ``vpn`` (raises on unmapped)."""
        entry = self.lookup(vpn)
        if entry is None or not entry.present:
            raise TranslationFault(f"{self.name}: vpn {vpn:#x} not present")
        return entry.frame

    # ------------------------------------------------------------------
    def iter_mappings(self) -> Iterator[tuple]:
        """Yield every ``(vpn, PageTableEntry)`` pair (test helper)."""
        def _recurse(table: _Table, prefix: int, level: int):
            for index, slot in table.slots.items():
                vpn_part = (prefix << _BITS_PER_LEVEL) | index
                if level == 3:
                    if isinstance(slot, PageTableEntry):
                        yield vpn_part, slot
                elif isinstance(slot, _Table):
                    yield from _recurse(slot, vpn_part, level + 1)
        yield from _recurse(self._root, 0, 0)
