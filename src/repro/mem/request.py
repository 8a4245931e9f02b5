"""Memory request records and the paper's traffic taxonomy.

Figure 4 and Figure 11 classify requests arriving at the FAM into
address-translation (AT) and non-AT traffic; DeACT additionally tags
packets with a verification flag ``V`` so the STU can tell a
pre-translated request (verify only) from an untranslated one (walk the
FAM page table).  Both concepts live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["RequestKind", "MemoryRequest"]

_request_ids = itertools.count()


class RequestKind(Enum):
    """What a memory request is *for* (the paper's AT / non-AT split,
    refined so the harness can break traffic down further)."""

    #: Application load/store data.
    DATA = "data"
    #: A node page-table walk read (node virtual -> node physical).
    NODE_PTW = "node_ptw"
    #: A system (FAM) page-table walk read issued by the STU.
    FAM_PTW = "fam_ptw"
    #: An access-control-metadata fetch issued by the STU.
    ACM = "acm"
    #: A dirty-block write-back.
    WRITEBACK = "writeback"

    # Members are singletons compared by identity, so the identity hash
    # is exact.  It keeps the per-access ``kind_counts[kind]`` bump in
    # C instead of calling Enum's Python-level ``__hash__``.  Nothing
    # iterates a hashed collection of kinds, so no order depends on it.
    __hash__ = object.__hash__


#: Values of the kinds counted as address translation.
_AT_KIND_VALUES = frozenset(("node_ptw", "fam_ptw", "acm"))

# ``is_translation`` is consulted on every memory-device access, so it
# is precomputed onto each member as a plain attribute (a property
# would re-evaluate set membership per call on the hot path).
for _kind in RequestKind:
    _kind.is_translation = _kind.value in _AT_KIND_VALUES
del _kind


@dataclass
class MemoryRequest:
    """One request travelling through the memory system.

    Attributes
    ----------
    addr:
        The address in the request's current address space (node
        physical until translated, FAM afterwards).
    is_write:
        Store vs load.
    kind:
        Traffic class (see :class:`RequestKind`).
    node_id:
        Originating node (used by the STU for verification).
    verified:
        The DeACT ``V`` flag: set by the FAM translator when the node
        already holds the FAM address, clear when the STU must walk.
    fam_addr:
        The FAM address once translation has happened.
    request_id:
        Monotonic id, used by the outstanding-mapping list.
    """

    addr: int
    is_write: bool = False
    kind: RequestKind = RequestKind.DATA
    node_id: int = 0
    verified: bool = False
    fam_addr: int | None = None
    needs_response: bool = True
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def with_fam_address(self, fam_addr: int) -> "MemoryRequest":
        """A copy of the request re-addressed into FAM space with the
        verification flag set (what the FAM translator emits)."""
        return MemoryRequest(addr=fam_addr, is_write=self.is_write,
                             kind=self.kind, node_id=self.node_id,
                             verified=True, fam_addr=fam_addr,
                             needs_response=self.needs_response,
                             request_id=self.request_id)
