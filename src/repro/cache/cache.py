"""A generic set-associative tag store.

Used for the data caches, both TLB levels, the PTW caches and (via the
organizations in :mod:`repro.stu`) the STU cache.  The store maps a
*key* (block address, page number, ...) to an arbitrary payload and
tracks hit/miss/eviction statistics.  Timing is the caller's concern —
this class is purely functional state.

Implementation note: each set is an ``OrderedDict`` ordered from
least- to most-recently-used; LRU promotion is ``move_to_end`` and
eviction is ``popitem(last=False)``.  This sits on the simulator's
hottest path (a dozen probes per trace event), so the line payload is
a two-slot list ``[value, dirty]`` rather than an object, and hot
callers use :meth:`get_line` / :meth:`fill_line` directly instead of
the boxed :meth:`access` / :meth:`fill` wrappers (which allocate an
:class:`AccessResult` per call).  Set selection memoizes a bitmask
when the set count is a power of two (every Table II structure).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Generic, List, Optional, Tuple, TypeVar

from repro.errors import ConfigError

__all__ = ["SetAssociativeCache", "AccessResult"]

V = TypeVar("V")


@dataclass
class AccessResult(Generic[V]):
    """Outcome of a cache probe-and-fill operation.

    Attributes
    ----------
    hit:
        Whether the key was present.
    value:
        Payload for the key after the operation.
    evicted_key / evicted_value:
        The entry displaced by a fill, if any (``None`` otherwise).
    evicted_dirty:
        True when the displaced entry had been written (write-back
        traffic must be generated by the caller).
    """

    hit: bool
    value: Optional[V] = None
    evicted_key: Optional[int] = None
    evicted_value: Optional[V] = None
    evicted_dirty: bool = False


class SetAssociativeCache(Generic[V]):
    """An ``n_sets`` x ``associativity`` tag store.

    Keys are non-negative integers; the set index is ``key % n_sets``
    and the full key is stored as the tag (no truncation — correctness
    over space, since this is a simulator).

    Replacement: ``lru`` promotes on every touch, ``fifo`` only orders
    by insertion, ``random`` evicts a seeded-random resident line (the
    paper's in-DRAM translation cache policy).
    """

    __slots__ = ("name", "n_sets", "associativity", "policy_name",
                 "_promote_on_hit", "_random_evict", "_rng", "_sets",
                 "_mask", "hits", "misses", "evictions", "fills")

    def __init__(self, name: str, n_sets: int, associativity: int,
                 replacement: str = "lru", seed: int = 0) -> None:
        if n_sets <= 0:
            raise ConfigError(f"{name}: set count must be positive")
        if associativity <= 0:
            raise ConfigError(f"{name}: associativity must be positive")
        if replacement not in ("lru", "fifo", "random"):
            raise ConfigError(
                f"{name}: unknown replacement policy {replacement!r}")
        self.name = name
        self.n_sets = n_sets
        self.associativity = associativity
        self.policy_name = replacement
        self._promote_on_hit = replacement == "lru"
        self._random_evict = replacement == "random"
        self._rng = random.Random(seed)
        self._sets: List["OrderedDict[int, list]"] = [
            OrderedDict() for _ in range(n_sets)]
        # Power-of-two set counts (all of Table II) index with a mask;
        # -1 marks the rare general case that needs a modulo.
        self._mask = n_sets - 1 if (n_sets & (n_sets - 1)) == 0 else -1
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0

    def _set_for(self, key: int) -> "OrderedDict[int, list]":
        mask = self._mask
        return self._sets[key & mask if mask >= 0 else key % self.n_sets]

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def get_line(self, key: int, write: bool = False) -> Optional[list]:
        """Probe ``key``; returns the mutable ``[value, dirty]`` line
        on a hit (with recency updated) or ``None`` on a miss."""
        mask = self._mask
        lines = self._sets[key & mask if mask >= 0 else key % self.n_sets]
        line = lines.get(key)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        if write:
            line[1] = True
        if self._promote_on_hit:
            lines.move_to_end(key)
        return line

    def fill_line(self, key: int, value: V,
                  dirty: bool = False) -> Optional[Tuple[int, Any, bool]]:
        """Slim fill: insert ``key`` -> ``value``, evicting if needed.

        Returns ``None`` when nothing was displaced (replace-in-place
        or free way), else ``(evicted_key, evicted_value,
        evicted_dirty)``.  Shares all counters with :meth:`fill` but
        allocates nothing on the common no-eviction path.

        Replace-in-place moves the line to the back except under FIFO,
        where it must keep its original insertion age (the aging
        bugfix).  Random replacement keeps the move: set order feeds
        positional victim selection, so preserving the seed behaviour
        keeps random-policy eviction sequences unchanged.
        """
        mask = self._mask
        lines = self._sets[key & mask if mask >= 0 else key % self.n_sets]
        self.fills += 1
        line = lines.get(key)
        if line is not None:
            line[0] = value
            if dirty:
                line[1] = True
            if self._promote_on_hit or self._random_evict:
                lines.move_to_end(key)
            return None
        evicted = None
        if len(lines) >= self.associativity:
            if self._random_evict:
                # Same underlying _randbelow draw as rng.choice(list),
                # without materializing the key list per eviction.
                index = self._rng.randrange(len(lines))
                victim_key = next(islice(iter(lines), index, None))
                victim = lines.pop(victim_key)
            else:
                victim_key, victim = lines.popitem(last=False)
            evicted = (victim_key, victim[0], victim[1])
            self.evictions += 1
        lines[key] = [value, dirty]
        return evicted

    def fill(self, key: int, value: V, dirty: bool = False) -> AccessResult[V]:
        """Insert ``key`` -> ``value``, evicting if the set is full.

        If the key is already present its payload is replaced in place
        (counted as a fill, not a hit).  Boxed wrapper over
        :meth:`fill_line` for non-hot callers.
        """
        present = key in self._set_for(key)
        evicted = self.fill_line(key, value, dirty)
        if present:
            return AccessResult(hit=True, value=value)
        if evicted is None:
            return AccessResult(hit=False, value=value)
        return AccessResult(hit=False, value=value,
                            evicted_key=evicted[0],
                            evicted_value=evicted[1],
                            evicted_dirty=evicted[2])

    # ------------------------------------------------------------------
    # Boxed API (non-hot callers and tests)
    # ------------------------------------------------------------------
    def access(self, key: int, write: bool = False) -> AccessResult[V]:
        """Probe ``key``; on a hit update recency (and dirtiness).

        Misses are *not* auto-filled — translation structures often
        need a multi-step walk before inserting; call :meth:`fill`
        once the payload is available.
        """
        line = self.get_line(key, write)
        if line is None:
            return AccessResult(hit=False)
        return AccessResult(hit=True, value=line[0])

    def probe(self, key: int) -> Optional[V]:
        """Look up ``key`` without updating statistics or recency."""
        line = self._set_for(key).get(key)
        return line[0] if line is not None else None

    def __contains__(self, key: int) -> bool:
        return key in self._set_for(key)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` if present; returns whether it was present."""
        return self._set_for(key).pop(key, None) is not None

    def invalidate_where(self, predicate) -> int:
        """Drop every entry whose ``(key, value)`` satisfies
        ``predicate`` — used for migration shootdowns (Section VI).
        Returns the number of invalidated entries."""
        dropped = 0
        for lines in self._sets:
            doomed = [key for key, line in lines.items()
                      if predicate(key, line[0])]
            for key in doomed:
                del lines[key]
                dropped += 1
        return dropped

    def clear(self) -> None:
        for lines in self._sets:
            lines.clear()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.fills = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SetAssociativeCache({self.name}: {self.n_sets}x"
                f"{self.associativity}, {len(self)} lines, "
                f"hit_rate={self.hit_rate:.2%})")
