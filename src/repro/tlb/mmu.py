"""The node memory-management unit.

Ties the two-level TLB to the page-table walker: a translation request
either hits a TLB level (no memory traffic) or triggers a walk whose
surviving entry addresses (after walk-cache filtering) are returned so
the node can charge them through its cache hierarchy and memory path —
page walks are ordinary memory reads to wherever the table pages live.

The per-event loop probes the L1 TLB itself and calls
:meth:`Mmu.translate_after_l1_miss` on a miss, which probes L2, walks
on a miss and refills both TLB levels in place, with no call into the
tag stores; :meth:`Mmu.translate_fast` is the same translation as one
call, through the TLB's own probe and install.  Both return a plain
``(frame, tlb_level, tlb_latency_ns, walk_addrs)`` tuple, where
``walk_addrs`` is a tuple of page-table entry addresses (empty on a
TLB hit).
"""

from __future__ import annotations

from typing import Tuple

from repro.config.system import PAGE_BYTES, PtwConfig, TlbConfig
from repro.core.hotpath import hot_path
from repro.pagetable.walker import PageTableWalker
from repro.pagetable.x86 import FourLevelPageTable
from repro.tlb.tlb import TwoLevelTlb

__all__ = ["Mmu"]


class Mmu:
    """Per-node MMU: TLB front-end plus a page-table walker back-end."""

    def __init__(self, page_table: FourLevelPageTable, tlb_config: TlbConfig,
                 ptw_config: PtwConfig, name: str = "mmu") -> None:
        self.name = name
        self._page_shift = PAGE_BYTES.bit_length() - 1
        self.tlb = TwoLevelTlb(tlb_config, name=f"{name}.tlb")
        self.walker = PageTableWalker(page_table, ptw_config.cache_entries,
                                      name=f"{name}.ptw")
        self.walks = 0

    def vpn_of(self, vaddr: int) -> int:
        return vaddr >> self._page_shift

    def physical_address(self, frame: int, vaddr: int) -> int:
        """Recombine a translated frame with the page offset."""
        offset = vaddr & (PAGE_BYTES - 1)
        return (frame << self._page_shift) | offset

    _NO_ADDRS: Tuple[int, ...] = ()

    def translate_fast(
            self, vpn: int) -> Tuple[int, int, float, Tuple[int, ...]]:
        """Translate a pre-decoded VPN; walk the page table on a TLB
        miss.

        Returns ``(frame, tlb_level, tlb_latency_ns, walk_addrs)``:
        ``tlb_level`` is 1 or 2 on a TLB hit and 0 when a walk was
        required; ``tlb_latency_ns`` is the on-chip lookup latency (the
        L2 probe cost on an L1 miss); ``walk_addrs`` is empty on TLB
        hits and otherwise holds the addresses of the page-table
        entries the caller must charge through the memory system, root
        to leaf.  Walks install the leaf
        translation into both TLB levels before returning, as hardware
        does.  The per-event loop probes the L1 TLB itself and calls
        :meth:`translate_after_l1_miss`; this entry point stays because
        ``perfbench/layers.py`` wraps it.
        """
        level, frame, latency = self.tlb.lookup_fast(vpn)
        if level:
            return frame, level, latency, self._NO_ADDRS
        self.walks += 1
        frame, walk_addrs = self.walker.walk(vpn)
        self.tlb.install(vpn, frame)
        return frame, 0, latency, walk_addrs

    @hot_path
    def translate_after_l1_miss(
            self, vpn: int) -> Tuple[int, int, float, Tuple[int, ...]]:
        """:meth:`translate_fast` continuation for callers that probed
        (and counted) the L1 TLB themselves — the fully inlined
        single-node loop.  The L1 hit/miss census is the caller's
        responsibility; everything downstream (L2, walker, installs)
        is accounted here identically.

        An L2 hit refills L1, and a walk refills L2 then L1, each in
        place with ``get_line``'s accounting and ``fill_line``'s body
        inlined: both levels are LRU, and ``vpn`` is absent from every
        level the refill writes (the caller just missed L1, this call
        just missed L2, and a walk touches no TLB), so the refills
        skip the replace-in-place check.
        """
        tlb = self.tlb
        l2 = tlb.l2
        mask = l2._mask
        lines = l2._sets[vpn & mask if mask >= 0 else vpn % l2.n_sets]
        frame = lines.pop(vpn, None)
        if frame is not None:
            l2.hits += 1
            level = 2
            walk_addrs = self._NO_ADDRS
        else:
            l2.misses += 1
            self.walks += 1
            level = 0
            frame, walk_addrs = self.walker.walk(vpn)
            if len(lines) >= l2.associativity:
                for victim in lines:
                    break
                del lines[victim]
        lines[vpn] = frame
        l1 = tlb.l1
        mask = l1._mask
        lines = l1._sets[vpn & mask if mask >= 0 else vpn % l1.n_sets]
        if len(lines) >= l1.associativity:
            for victim in lines:
                break
            del lines[victim]
        lines[vpn] = frame
        return frame, level, tlb._l2_latency_ns, walk_addrs

    def shootdown(self, vpn: int) -> None:
        """Invalidate one page everywhere the MMU caches it."""
        self.tlb.invalidate(vpn)
        self.walker.invalidate()
