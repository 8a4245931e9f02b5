"""The paper's memory traffic taxonomy.

Figure 4 and Figure 11 classify requests arriving at the FAM into
address-translation (AT) and non-AT traffic.  :class:`RequestKind` is
that classification; the memory devices count their accesses by kind.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["RequestKind"]


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
