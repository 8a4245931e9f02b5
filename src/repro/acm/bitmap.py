"""Shared-page bitmaps.

Sharing is tracked at 1 GB granularity (Section III-A): each 1 GB
physical region owns a 64 Kbit bitmap in the FAM metadata area.  With
up to 16383 nodes that budget works out to 4 bits per node, which we
spend as ``valid | perm_code``: a valid bit plus the node's 2-bit
permission class.  This realizes the paper's "mixed access permissions
for nodes sharing a page" (some nodes read-write, others read-only).
"""

from __future__ import annotations

from typing import Dict

from repro.acm.metadata import Permission, perm_code_allows
from repro.errors import ConfigError

__all__ = ["SharedPageBitmap"]

_MAX_NODE_BITS = 14


class SharedPageBitmap:
    """Per-region record of which nodes may access a shared page.

    The simulator stores the logical content (node id -> perm code);
    the physical 8 KB placement is handled by
    :class:`~repro.acm.layout.FamLayout`.
    """

    def __init__(self) -> None:
        self._grants: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._grants)

    def grant(self, node_id: int, perm_code: int) -> None:
        """Allow ``node_id`` to access the region's shared page."""
        if node_id < 0 or node_id >= (1 << _MAX_NODE_BITS) - 1:
            raise ConfigError(f"node id {node_id} out of bitmap range")
        if not 0 <= perm_code <= 3:
            raise ConfigError(f"perm code {perm_code} out of range")
        self._grants[node_id] = perm_code

    def revoke(self, node_id: int) -> bool:
        """Remove a node's grant; returns whether one existed."""
        return self._grants.pop(node_id, None) is not None

    def allows(self, node_id: int, needed: Permission) -> bool:
        """Whether ``node_id`` holds every right in ``needed``."""
        code = self._grants.get(node_id)
        if code is None:
            return False
        return perm_code_allows(code, needed)

    def nodes(self) -> frozenset:
        """Ids of all granted nodes."""
        return frozenset(self._grants)
