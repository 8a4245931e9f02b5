"""Statistics registries.

Every architectural component reports into a :class:`Stats` object of
plain named counters; :func:`geometric_mean` aggregates the harness's
per-benchmark speedups.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, Sequence

__all__ = ["Stats", "geometric_mean"]


class Stats:
    """A named bag of additive counters.

    Counters spring into existence at zero on first use, so components
    never need to pre-declare them.
    """

    def __init__(self, name: str = "stats") -> None:
        self.name = name
        self._counters: Dict[str, float] = defaultdict(float)

    def incr(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``key``."""
        self._counters[key] += amount

    def get(self, key: str, default: float = 0.0) -> float:
        """Current value of ``key`` (0.0 if never incremented)."""
        return self._counters.get(key, default)

    def __getitem__(self, key: str) -> float:
        return self._counters.get(key, 0.0)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def keys(self) -> Iterable[str]:
        return self._counters.keys()

    def hit_rate(self, prefix: str) -> float:
        """Hit rate for a component that counts ``<prefix>.hits`` and
        ``<prefix>.misses``."""
        hits = self._counters.get(f"{prefix}.hits", 0.0)
        misses = self._counters.get(f"{prefix}.misses", 0.0)
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy of all counters."""
        return dict(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counters.items()))
        return f"Stats({self.name}: {body})"


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; 0.0 for an empty sequence.

    The paper reports group geomeans for the sensitivity studies
    (Figures 13-15); zeros/negatives are rejected because a speedup of
    zero is always a harness bug.
    """
    if not values:
        return 0.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
    return math.exp(sum(math.log(v) for v in values) / len(values))
