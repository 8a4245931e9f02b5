"""A small bounded LRU memo.

It caps the trace and node-side stream memos of
:func:`~repro.experiments.runner.execute_job`, so a long sweep over many
benchmarks and settings cannot keep every trace and stream alive for
the life of the process.
:class:`BoundedMemo` is a plain insertion-ordered ``dict`` in least- to
most-recently-used order (a hit is deleted and stored again) that
evicts its first, coldest entry when full.

This is a *memo*, not a simulated structure: eviction only costs a
recompute and can never change simulation results (everything stored
here is a pure function of its key).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.errors import ConfigError

__all__ = ["BoundedMemo"]


class BoundedMemo:
    """An LRU-bounded mapping with dict-like ``get`` / ``put`` / ``pop``."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError(
                f"memo capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[Any, Any] = {}

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the memoized value (refreshing its recency), or
        ``default`` when absent."""
        entries = self._entries
        value = entries.pop(key, _MISSING)
        if value is _MISSING:
            return default
        entries[key] = value
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert ``key`` -> ``value``, evicting the LRU entry if full."""
        entries = self._entries
        if entries.pop(key, _MISSING) is _MISSING and \
                len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[key] = value

    def pop(self, key: Any, default: Any = None) -> Any:
        """Drop ``key`` (memo invalidation), returning its value."""
        return self._entries.pop(key, default)

    def clear(self) -> None:
        self._entries.clear()

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BoundedMemo({len(self._entries)}/{self.capacity} "
                f"entries)")


#: Unique sentinel so ``None`` values memoize cleanly.
_MISSING: Optional[object] = object()
