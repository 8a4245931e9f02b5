"""A two-level translation lookaside buffer.

L1 misses probe L2; an L2 hit refills L1.  Both levels cache full
VPN -> frame leaf translations (4 KB pages, as throughout the paper).

The per-event loop probes the L1 TLB itself and hands misses to
:meth:`repro.tlb.mmu.Mmu.translate_after_l1_miss`, which probes L2 and
refills.  :meth:`TwoLevelTlb.lookup_fast` is the whole two-level probe
as one call, returning a plain ``(level, frame, latency_ns)`` tuple;
:meth:`repro.tlb.mmu.Mmu.translate_fast` is its caller.
"""

from __future__ import annotations

from typing import Tuple

from repro.cache.cache import SetAssociativeCache
from repro.config.system import TlbConfig
from repro.errors import ConfigError

__all__ = ["TwoLevelTlb"]


def _level_geometry(name: str, entries: int, associativity: int) -> int:
    """Validated set count for one TLB level.

    Entry counts that do not divide into whole ways would silently
    truncate capacity (``entries // associativity`` sets), so they are
    rejected here even if the config object skipped its own
    validation.
    """
    if associativity <= 0:
        raise ConfigError(
            f"{name}: associativity must be positive, got {associativity}")
    if entries <= 0:
        raise ConfigError(
            f"{name}: entry count must be positive, got {entries}")
    if entries % associativity:
        raise ConfigError(
            f"{name}: {entries} entries do not divide into "
            f"{associativity}-way sets (capacity would silently drop to "
            f"{(entries // associativity) * associativity} entries)")
    return entries // associativity


class TwoLevelTlb:
    """L1 + L2 TLB with LRU replacement at both levels."""

    def __init__(self, config: TlbConfig, name: str = "tlb") -> None:
        self.config = config
        self.l1 = SetAssociativeCache(
            f"{name}.L1",
            _level_geometry(f"{name}.L1", config.l1_entries,
                            config.l1_associativity),
            config.l1_associativity)
        self.l2 = SetAssociativeCache(
            f"{name}.L2",
            _level_geometry(f"{name}.L2", config.l2_entries,
                            config.l2_associativity),
            config.l2_associativity)
        # A float, whatever the config holds: the node-side pass tells
        # a latency from an address in its records by type.
        self._l2_latency_ns = float(config.l2_latency_ns)

    def lookup_fast(self, vpn: int) -> Tuple[int, int, float]:
        """Probe L1 then L2: ``(level, frame, latency_ns)``.

        ``level`` is 1/2 for hits (with ``frame`` valid) and 0 for a
        full miss (``frame`` is -1 and must not be used).  An L2 hit
        refills L1; ``latency_ns`` is the L2 probe cost on an L1 miss.
        The L1 probe is inlined (``get_line``'s body, LRU promotion
        unconditional — both TLB levels are always LRU) because most
        translations end there.
        """
        l1 = self.l1
        mask = l1._mask
        lines = l1._sets[vpn & mask if mask >= 0 else vpn % l1.n_sets]
        frame = lines.get(vpn)
        if frame is not None:
            l1.hits += 1
            lines.move_to_end(vpn)
            return 1, frame, 0.0
        l1.misses += 1
        frame = self.l2.get_line(vpn)
        if frame is not None:
            self.l1.fill_line(vpn, frame)
            return 2, frame, self._l2_latency_ns
        return 0, -1, self._l2_latency_ns

    def install(self, vpn: int, frame: int) -> None:
        """Insert a translation into both levels (walk refill)."""
        self.l2.fill_line(vpn, frame)
        self.l1.fill_line(vpn, frame)

    def invalidate(self, vpn: int) -> None:
        """Shoot down one page's translation."""
        self.l1.invalidate(vpn)
        self.l2.invalidate(vpn)

    def flush(self) -> None:
        """Full TLB flush (context switch / job migration)."""
        self.l1.clear()
        self.l2.clear()

    @property
    def hit_rate(self) -> float:
        """Combined hit rate over all lookups."""
        lookups = self.l1.accesses
        if not lookups:
            return 0.0
        misses = self.l2.misses
        return (lookups - misses) / lookups
