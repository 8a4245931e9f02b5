"""A generic set-associative tag store.

Used for the data caches, both TLB levels, the PTW caches and (via the
organizations in :mod:`repro.stu`) the STU cache.  The store maps a
*key* (block address, page number, ...) to an arbitrary payload and
counts hits and misses.  Timing is the caller's concern —
this class is purely functional state.

Implementation note: each set is a plain ``dict`` mapping key ->
payload directly, in insertion order from least- to most-recently-used
(a dict keeps no per-key link node, so it is small and cheap to probe).
LRU promotion pops the key and stores it again; the victim is the
first key.  The per-event refills find it with ``for victim in lines:
break``, which calls nothing; rarer sites use ``next(iter(lines))``.
There is no per-line container: a fill stores the payload itself, so
it allocates nothing.  The TLBs store the frame, the walk and ACM
caches ``True``, the translation caches the FAM page.  The data caches
are the only stores that track dirtiness, so their payload *is* the
dirty bit: a write probe (``get_line(key, write=True)``) sets it to
``True`` and a victim's payload says whether it needs a write-back.
``None`` means "absent" and is never a valid payload; a clean line's
``False`` and a frame or page number 0 are payloads, so a probe tests
``is not None``, never truthiness.

This sits on the simulator's hottest path (a dozen probes per trace
event), so the store's probe and fill, :meth:`get_line` and
:meth:`fill_line`, return plain payloads and allocate nothing, and the
per-event loops inline the probes of their first levels outright.  Set
selection memoizes a bitmask when the set count is a power of two
(every Table II structure).

Replacement is LRU, the policy of every structure but one.  The
in-DRAM translation cache (Section III-C) evicts a seeded-random
victim instead; it asks for that with ``random_seed``.

A set's dict is built on the set's first fill.  Until then its slot
in the set list holds the store's one :class:`_UnbuiltRow`, an empty
dict to every probe, so constructing a store costs one list whatever
its set count (the DeACT translation cache has 16,384 sets: an empty
dict each would add about 1 ms per node to every ``FamSystem``
construction), and probing a never-filled set, even with
``pop(key, None)``, is a miss that allocates nothing.  The first
``lines[key] = value`` on a set builds its row; every fill, in place
or through :meth:`SetAssociativeCache.fill_line`, stores that way, so
no fill site needs to know.  A ``lines`` fetched before that store
still names the unbuilt row, so code that stores into one set twice
fetches the set again in between (the hierarchy's victim absorption
does).
"""

from __future__ import annotations

import random
import weakref
from itertools import islice
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from repro.errors import ConfigError

__all__ = ["SetAssociativeCache"]

V = TypeVar("V")


class _UnbuiltRow(dict):
    """Every never-filled set of one store.

    Probes see an empty row (``in``, ``get``, ``len``, iteration and
    ``pop`` with a default are the inherited ``dict`` methods, on no
    entries).  The first store into a set, ``lines[key] = value``,
    builds the set's real row in the store's set list and stores into
    it; this shared object stays empty.  It holds its store weakly, so
    a store is freed by reference counting, not left to the cyclic
    garbage collector.
    """

    __slots__ = ("_store", "_n_sets")

    def __init__(self, store: "SetAssociativeCache") -> None:
        super().__init__()
        self._store = weakref.ref(store)
        self._n_sets = store.n_sets

    def __setitem__(self, key: int, value) -> None:
        self._store()._sets[key % self._n_sets] = {key: value}


class SetAssociativeCache(Generic[V]):
    """An ``n_sets`` x ``associativity`` tag store.

    Keys are non-negative integers; the set index is ``key % n_sets``
    and the full key is stored as the tag (no truncation — correctness
    over space, since this is a simulator).

    Replacement is LRU: every probe hit and every fill moves the line
    to the most-recently-used end.  With ``random_seed`` set, a full
    set evicts a random resident line drawn from
    ``random.Random(random_seed)`` instead, and probe hits leave the
    set's order alone (the paper's in-DRAM translation cache policy).
    """

    __slots__ = ("name", "n_sets", "associativity", "_rng", "_sets",
                 "_mask", "hits", "misses", "__weakref__")

    def __init__(self, name: str, n_sets: int, associativity: int,
                 random_seed: Optional[int] = None) -> None:
        if n_sets <= 0:
            raise ConfigError(f"{name}: set count must be positive")
        if associativity <= 0:
            raise ConfigError(f"{name}: associativity must be positive")
        self.name = name
        self.n_sets = n_sets
        self.associativity = associativity
        # ``None`` means LRU; random replacement draws its victims here.
        self._rng = (None if random_seed is None
                     else random.Random(random_seed))
        # Every set starts unbuilt; its first fill builds its row.
        self._sets: List[Dict[int, V]] = [_UnbuiltRow(self)] * n_sets
        # Power-of-two set counts (all of Table II) index with a mask;
        # -1 marks the rare general case that needs a modulo.
        self._mask = n_sets - 1 if (n_sets & (n_sets - 1)) == 0 else -1
        self.hits = 0
        self.misses = 0

    def _set_for(self, key: int) -> Dict[int, V]:
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
        if self._rng is None:
            # LRU: a hit is stored again below, at the MRU end.
            payload = lines.pop(key, None)
        else:
            payload = lines.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        if write:
            payload = lines[key] = True
        elif self._rng is None:
            lines[key] = payload
        return payload

    def fill_line(self, key: int, value: V) -> Optional[Tuple[int, V]]:
        """Insert ``key`` -> ``value``, evicting if the set is full.

        Returns ``None`` when nothing was displaced (replace-in-place
        or free way), else ``(evicted_key, evicted_value)``; for a data
        cache the victim's payload is its dirty bit, and the caller
        generates the write-back.  A present key has its payload
        replaced in place, which is not counted as a hit.  Allocates
        nothing on the common no-eviction path.

        Replace-in-place moves the line to the back under both
        policies.  Random replacement keeps the move because set order
        feeds its positional victim selection.  The random victim is
        the same ``_randbelow`` draw as ``rng.choice(list(lines))``,
        without materializing the key list per eviction.
        """
        mask = self._mask
        lines = self._sets[key & mask if mask >= 0 else key % self.n_sets]
        if key in lines:
            del lines[key]
            lines[key] = value
            return None
        evicted = None
        if len(lines) >= self.associativity:
            rng = self._rng
            if rng is None:
                for victim in lines:
                    break
            else:
                victim = next(islice(iter(lines),
                                     rng.randrange(len(lines)), None))
            evicted = victim, lines.pop(victim)
        lines[key] = value
        return evicted

    # ------------------------------------------------------------------
    # Inspection and maintenance
    # ------------------------------------------------------------------
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SetAssociativeCache({self.name}: {self.n_sets}x"
                f"{self.associativity}, {len(self)} lines, "
                f"hit_rate={self.hit_rate:.2%})")
