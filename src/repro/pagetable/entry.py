"""Page-table entries.

Entries carry the mapped frame number plus a small flag set.  Only the
flags the simulation consults are modelled; hardware-reserved bits are
out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PageTableEntry", "PTE_PRESENT", "PTE_WRITE", "PTE_EXEC"]

PTE_PRESENT = 0x1
PTE_WRITE = 0x2
PTE_EXEC = 0x4


@dataclass
class PageTableEntry:
    """A leaf (PTE-level) translation entry.

    Attributes
    ----------
    frame:
        Physical frame number the page maps to.
    flags:
        OR of ``PTE_PRESENT`` / ``PTE_WRITE`` / ``PTE_EXEC``.
    accessed / dirty:
        Reference bits maintained by walks, available to paging-policy
        extensions.
    """

    frame: int
    flags: int = PTE_PRESENT | PTE_WRITE
    accessed: bool = False
    dirty: bool = False

    @property
    def present(self) -> bool:
        return bool(self.flags & PTE_PRESENT)

    def touch(self, write: bool) -> None:
        """Update reference bits for an access."""
        self.accessed = True
        if write:
            self.dirty = True
