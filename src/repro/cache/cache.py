"""A generic set-associative tag store.

Used for the data caches, both TLB levels, the PTW caches and (via the
organizations in :mod:`repro.stu`) the STU cache.  The store maps a
*key* (block address, page number, ...) to an arbitrary payload and
tracks hit/miss/eviction statistics.  Timing is the caller's concern —
this class is purely functional state.

Implementation note: each set is an ``OrderedDict`` mapping key ->
payload directly, ordered from least- to most-recently-used; LRU
promotion is ``move_to_end`` and eviction is ``popitem(last=False)``.
There is no per-line container: a fill stores the payload itself, so
it allocates nothing.  The TLBs store the frame, the walk and ACM
caches ``True``, the translation caches the FAM page.  The data caches
are the only stores that track dirtiness, so their payload *is* the
dirty bit: a write probe (``get_line(key, write=True)``) sets it to
``True`` and a victim's payload says whether it needs a write-back.
``None`` means "absent" and is never a valid payload.

This sits on the simulator's hottest path (a dozen probes per trace
event), so hot callers use :meth:`get_line` / :meth:`fill_line`
directly instead of the boxed :meth:`access` / :meth:`fill` wrappers
(which allocate an :class:`AccessResult` per call), and the per-event
loops inline the probes of their first levels outright.  Set selection
memoizes a bitmask when the set count is a power of two (every
Table II structure).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Generic, List, Optional, Tuple, TypeVar

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
        For a data cache the value is the victim's dirty bit (write-back
        traffic must be generated by the caller).
    """

    hit: bool
    value: Optional[V] = None
    evicted_key: Optional[int] = None
    evicted_value: Optional[V] = None


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
        self._sets: List["OrderedDict[int, V]"] = [
            OrderedDict() for _ in range(n_sets)]
        # Power-of-two set counts (all of Table II) index with a mask;
        # -1 marks the rare general case that needs a modulo.
        self._mask = n_sets - 1 if (n_sets & (n_sets - 1)) == 0 else -1
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0

    def _set_for(self, key: int) -> "OrderedDict[int, V]":
        mask = self._mask
        return self._sets[key & mask if mask >= 0 else key % self.n_sets]

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def get_line(self, key: int, write: bool = False) -> Optional[V]:
        """Probe ``key``; returns its payload on a hit (with recency
        updated) or ``None`` on a miss.  ``write`` marks a data-cache
        line dirty (its payload becomes ``True``)."""
        mask = self._mask
        lines = self._sets[key & mask if mask >= 0 else key % self.n_sets]
        payload = lines.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        if write:
            payload = lines[key] = True
        if self._promote_on_hit:
            lines.move_to_end(key)
        return payload

    def fill_line(self, key: int, value: V) -> Optional[Tuple[int, V]]:
        """Slim fill: insert ``key`` -> ``value``, evicting if needed.

        Returns ``None`` when nothing was displaced (replace-in-place
        or free way), else ``(evicted_key, evicted_value)``.  Shares
        all counters with :meth:`fill` and allocates nothing on the
        common no-eviction path.

        Replace-in-place moves the line to the back except under FIFO,
        where it must keep its original insertion age (the aging
        bugfix).  Random replacement keeps the move: set order feeds
        positional victim selection, so preserving the seed behaviour
        keeps random-policy eviction sequences unchanged.
        """
        mask = self._mask
        lines = self._sets[key & mask if mask >= 0 else key % self.n_sets]
        self.fills += 1
        if key in lines:
            lines[key] = value
            if self._promote_on_hit or self._random_evict:
                lines.move_to_end(key)
            return None
        evicted = None
        if len(lines) >= self.associativity:
            if self._random_evict:
                evicted = self.pop_random(lines)
            else:
                evicted = lines.popitem(last=False)
            self.evictions += 1
        lines[key] = value
        return evicted

    def pop_random(self, lines: "OrderedDict[int, V]") -> Tuple[int, V]:
        """Remove and return a seeded-random ``(key, payload)`` of the
        set ``lines`` — the random policy's victim.  Same underlying
        ``_randbelow`` draw as ``rng.choice(list(lines))``, without
        materializing the key list per eviction."""
        index = self._rng.randrange(len(lines))
        victim_key = next(islice(iter(lines), index, None))
        return victim_key, lines.pop(victim_key)

    def fill(self, key: int, value: V) -> AccessResult[V]:
        """Insert ``key`` -> ``value``, evicting if the set is full.

        If the key is already present its payload is replaced in place
        (counted as a fill, not a hit).  Boxed wrapper over
        :meth:`fill_line` for non-hot callers.
        """
        present = key in self._set_for(key)
        evicted = self.fill_line(key, value)
        if present:
            return AccessResult(hit=True, value=value)
        if evicted is None:
            return AccessResult(hit=False, value=value)
        return AccessResult(hit=False, value=value,
                            evicted_key=evicted[0],
                            evicted_value=evicted[1])

    # ------------------------------------------------------------------
    # Boxed API (non-hot callers and tests)
    # ------------------------------------------------------------------
    def access(self, key: int, write: bool = False) -> AccessResult[V]:
        """Probe ``key``; on a hit update recency (and dirtiness).

        Misses are *not* auto-filled — translation structures often
        need a multi-step walk before inserting; call :meth:`fill`
        once the payload is available.
        """
        payload = self.get_line(key, write)
        if payload is None:
            return AccessResult(hit=False)
        return AccessResult(hit=True, value=payload)

    def probe(self, key: int) -> Optional[V]:
        """Look up ``key`` without updating statistics or recency."""
        return self._set_for(key).get(key)

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
            doomed = [key for key, payload in lines.items()
                      if predicate(key, payload)]
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
