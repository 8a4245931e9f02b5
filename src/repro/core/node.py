"""A compute node: core, caches, MMU, local DRAM, and the OS layer.

The node runs an aggregate memory-instruction trace through:

1. the **MMU** — TLB lookup, then a node page walk on a miss whose
   surviving steps are charged through the cache hierarchy and the
   memory path (page-table pages live in local DRAM or the FAM zone
   per the 20/80 placement policy, so walks can reach the FAM);
2. the **cache hierarchy** — L1/L2/L3, inclusive of L3;
3. the **memory path** — local DRAM for low node-physical addresses,
   or the architecture's FAM access procedure for the FAM zone.

The core model is an interval/outstanding-window hybrid: non-memory
instructions retire at ``cores x issue_width`` per cycle, on-chip cache
hits block briefly, LLC misses occupy one of ``max_outstanding`` slots
and stall the core only when the trace marks them dependent (pointer
chasing) or the window fills — reproducing memory-level parallelism
without cycle-accurate out-of-order simulation.

The production path is the allocation-free fast loop
:meth:`Node.run_events`.  :meth:`Node.run_decoded` drains a whole
trace through it on a single node; the multi-node interleaved driver
calls it with an ``until`` bound, the heap's next key, so each call
runs the node for as long as the seed's per-event heap would have
kept picking it.  :meth:`Node.step_fast` is a one-event
``run_events``.  The loop makes each modeled operation one call into
the layer that owns it — a walk step into the cache hierarchy, an LLC
miss or write-back into local DRAM or the architecture's FAM access
procedure — with no node-level helper in between.  A first touch is
straight-line code in :meth:`Node._handle_page_fault`: the placement
draw, then a local frame or one broker grant, then one map.  Boxed
:class:`~repro.workloads.trace.TraceEvent` objects and the seed's
composed page fault survive only in the :mod:`repro.core.refpath`
oracle.
"""

from __future__ import annotations

import math
import random
import weakref
from heapq import heappop, heappush
from typing import Iterable, Optional, Tuple, TYPE_CHECKING

from repro.broker.broker import MemoryBroker
from repro.cache.hierarchy import CacheHierarchy
from repro.config.system import PAGE_BYTES, SystemConfig
from repro.core.hotpath import hot_path
from repro.fabric.network import FabricNetwork
from repro.mem.device import DramDevice, NvmDevice
from repro.mem.request import RequestKind
from repro.pagetable.x86 import FourLevelPageTable
from repro.sim.resource import OutstandingWindow
from repro.sim.stats import Stats
from repro.tlb.mmu import Mmu
from repro.translator.fam_translator import FamTranslator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.architectures import Architecture
    from repro.core.results import NodeMetrics
    from repro.stu.stu import Stu
    from repro.workloads.trace import DecodedTrace

__all__ = ["Node"]

#: Enum attribute lookups hoisted off the per-event path.
_KIND_DATA = RequestKind.DATA
_KIND_NODE_PTW = RequestKind.NODE_PTW
_KIND_WRITEBACK = RequestKind.WRITEBACK

_INF = math.inf


class Node:
    """One compute node attached to the fabric."""

    def __init__(self, node_id: int, config: SystemConfig,
                 broker: MemoryBroker, fabric: FabricNetwork,
                 fam: NvmDevice, architecture: "Architecture",
                 seed: int = 0) -> None:
        self.node_id = node_id
        self.config = config
        self.broker = broker
        self.fabric = fabric
        self.fam = fam
        self.architecture = architecture
        self.name = f"node{node_id}"

        self.caches = CacheHierarchy(config.l1, config.l2, config.l3,
                                     name=self.name)
        self.dram = DramDevice(config.local_memory,
                               name=f"{self.name}.dram")
        self.stats = Stats(self.name)
        # Counter dict hoisted off the per-access path (Stats.incr is
        # a call per counter bump; the dict add is not).
        self._stat_counters = self.stats._counters

        # --- node physical address map -------------------------------
        # [0, local_usable)            : local DRAM frames
        # [local_usable, local_size)   : FAM translation cache (DeACT)
        # [local_size, ...)            : the FAM NUMA zone
        tcache_bytes = (config.translation_cache.size_bytes
                        if architecture.uses_translator else 0)
        local_usable = config.local_memory.size_bytes - tcache_bytes
        self.fam_zone_base = config.local_memory.size_bytes
        self._local_frames_free = local_usable // PAGE_BYTES
        self._next_local_frame = 0
        self._next_fam_zone_page = self.fam_zone_base // PAGE_BYTES

        # --- OS layer -------------------------------------------------
        self._rng = random.Random(seed)
        # Placement draw, split, broker grant and map hoisted off the
        # first-touch path.
        self._draw = self._rng.random
        self._local_fraction = config.allocation.local_fraction
        self._grant = broker.ensure_mapped
        # The table's interior-frame callback holds the node weakly, so
        # a dropped system is freed by reference counting instead of
        # waiting, with all its tag stores, for the cyclic collector.
        allocate_frame = weakref.WeakMethod(self._allocate_os_frame)
        self.page_table = FourLevelPageTable(lambda: allocate_frame()(),
                                             name=f"{self.name}.pt")
        self._map = self.page_table.map
        self.mmu = Mmu(self.page_table, config.tlb, config.ptw,
                       name=f"{self.name}.mmu")

        # --- DeACT attachments (populated per architecture) -----------
        self.fam_translator: Optional[FamTranslator] = None
        if architecture.uses_translator:
            self.fam_translator = FamTranslator(
                config.translation_cache, self.dram,
                region_base=local_usable, page_bytes=PAGE_BYTES,
                name=f"{self.name}.translator", seed=seed)
        self.stu: Optional["Stu"] = None  # attached by FamSystem

        # --- core state -----------------------------------------------
        self.window = OutstandingWindow(config.core.max_outstanding,
                                        name=f"{self.name}.window")
        slots_per_cycle = config.core.issue_width * config.core.cores
        self._slot_ns = config.core.cycle_ns / slots_per_cycle
        self.core_time_ns = 0.0
        self.instructions = 0
        self.memory_events = 0

        # --- hot-path shift memoization -------------------------------
        # Page/block geometry is fixed per run, so the per-event address
        # arithmetic reduces to shifts/ors over pre-decoded trace
        # columns (see Trace.decoded / run_events).
        self._page_shift = PAGE_BYTES.bit_length() - 1
        self._block_shift = self.caches.block_shift
        self._frame_block_shift = self._page_shift - self._block_shift

    # ------------------------------------------------------------------
    # OS: frame allocation and demand paging
    # ------------------------------------------------------------------
    def _allocate_os_frame(self) -> int:
        """Allocate a node-physical frame (byte address) for an
        interior page-table page: the page table's frame callback.

        Applies the paper's placement split: ``local_fraction`` of
        pages from node DRAM, the rest from the FAM zone (footnote 3:
        20 % local / 80 % FAM).  FAM-zone pages are backed by the
        broker immediately — the Opal grant that also installs the
        system-page-table entry and the ACM.  A first touch makes the
        same choice in line (:meth:`_handle_page_fault`).
        """
        if (self._draw() < self._local_fraction
                and self._local_frames_free > 0):
            frame = self._next_local_frame
            self._next_local_frame += 1
            self._local_frames_free -= 1
            self._stat_counters["frames.local"] += 1.0
            return frame * PAGE_BYTES
        node_page = self._next_fam_zone_page
        self._next_fam_zone_page += 1
        self.broker.ensure_mapped(self.node_id, node_page)
        self._stat_counters["frames.fam"] += 1.0
        return node_page * PAGE_BYTES

    def _handle_page_fault(self, vpn: int) -> None:
        """First touch of a virtual page: allocate and map a frame.

        The placement draw and the local vs FAM-zone choice are made
        here, as :meth:`_allocate_os_frame` makes them; a FAM-zone
        frame is one broker grant, and the map one call, whose
        interior tables still come from :meth:`_allocate_os_frame`.
        The seed body is :func:`repro.core.refpath._ref_page_fault`.
        """
        counters = self._stat_counters
        if (self._draw() < self._local_fraction
                and self._local_frames_free > 0):
            frame = self._next_local_frame
            self._next_local_frame = frame + 1
            self._local_frames_free -= 1
            counters["frames.local"] += 1.0
        else:
            frame = self._next_fam_zone_page
            self._next_fam_zone_page = frame + 1
            self._grant(self.node_id, frame)
            counters["frames.fam"] += 1.0
        self._map(vpn, frame)
        counters["page_faults"] += 1.0

    # ------------------------------------------------------------------
    # Per-event path
    # ------------------------------------------------------------------
    def step_fast(self, gap: int, vpn: int, offset: int, blk: int,
                  is_write: bool, dependent: bool) -> float:
        """Advance the core over one pre-decoded trace event (a
        one-event :meth:`run_events`); returns the new core time.

        ``vpn`` / ``offset`` / ``blk`` are the event's virtual page
        number, page offset and block-within-page, as decomposed by
        :meth:`repro.workloads.trace.Trace.decoded`.  No simulator
        path calls this; it stays as the named one-event entry point
        that ``perfbench/layers.py`` wraps.
        """
        return self.run_events(((gap, vpn, offset, blk, is_write,
                                 dependent),))

    @hot_path
    def run_decoded(self, decoded: "DecodedTrace") -> float:
        """Run a whole pre-decoded trace on this node via the inlined
        scalar loop; returns the core time."""
        return self.run_events(decoded.events())

    @hot_path
    def run_events(self, events: "Iterable[Tuple]",
                   until: float = _INF) -> float:
        """Drain ``events`` — an iterable of pre-decoded
        ``(gap, vpn, offset, block, is_write, dependent)`` tuples —
        through the fast loop; returns the core time.

        The loop stops early, right after the first event that leaves
        the core time above ``until``; when ``events`` is an iterator,
        the events not yet taken stay in it.  The multi-node driver
        derives ``until`` from its heap's next key, so one call runs a
        node for as long as the per-event heap would have kept picking
        it.

        Every per-event attribute lookup is hoisted into a local, and
        the L1 TLB probe, the L1 data-cache probe and the core
        window's not-full ``admit`` and ``record`` are inlined.  Each
        modeled operation below that is one call into the layer that
        owns it: a page-walk step is one
        :meth:`~repro.cache.hierarchy.CacheHierarchy.access_fast`, and
        an LLC miss or write-back is one ``DramDevice.access`` below
        :attr:`fam_zone_base` or one ``Architecture.fam_access_fast``
        from it on.  Those callees are looked up once per call, so a
        wrapper installed on their class before the call sees them.
        Taking an iterator lets :meth:`run_decoded` feed a ``zip`` over
        the decoded trace columns, so events never materialize as boxed
        objects.  Counter write-back happens in ``finally`` so a
        mid-trace access violation still leaves instruction/event
        counts sane.
        """
        window = self.window
        admit = window.admit
        completions = window._completions
        capacity = window.capacity
        mmu = self.mmu
        translate_l1_missed = mmu.translate_after_l1_miss
        tlb_l1 = mmu.tlb.l1
        tlb_l1_sets = tlb_l1._sets
        tlb_l1_mask = tlb_l1._mask
        tlb_l1_n_sets = tlb_l1.n_sets
        caches = self.caches
        access_block = caches.access_fast
        hier_l1_missed = caches.access_after_l1_miss
        data_l1 = caches._l1
        data_l1_sets = data_l1._sets
        data_l1_mask = data_l1._mask
        data_l1_n_sets = data_l1.n_sets
        lat1 = caches._lat1
        mapped = self.page_table._leaves  # demand-paging check
        page_fault = self._handle_page_fault
        dram_access = self.dram.access
        fam_access = self.architecture.fam_access_fast
        fam_zone_base = self.fam_zone_base
        counters = self._stat_counters
        slot_ns = self._slot_ns
        block_shift = self._block_shift
        frame_block_shift = self._frame_block_shift
        page_shift = self._page_shift
        core_time = self.core_time_ns
        instructions = self.instructions
        tlb_l1_hits = 0
        data_l1_hits = 0
        consumed = 0
        try:
            for gap, vpn, offset, blk, is_write, dependent in events:
                consumed += 1
                instructions += gap + 1
                core_time += gap * slot_ns

                # --- issue: the window's not-full admit inlined ------
                while completions and completions[0] <= core_time:
                    heappop(completions)
                issue = (core_time if len(completions) < capacity
                         else admit(core_time))

                # --- translate: L1 TLB probe inlined (always LRU) ----
                if vpn not in mapped:
                    page_fault(vpn)
                lines = tlb_l1_sets[vpn & tlb_l1_mask if tlb_l1_mask >= 0
                                    else vpn % tlb_l1_n_sets]
                frame = lines.get(vpn)
                if frame is not None:
                    tlb_l1_hits += 1
                    lines.move_to_end(vpn)
                    t = issue  # + 0.0 ns L1 latency
                else:
                    tlb_l1.misses += 1
                    frame, _lvl, tlb_latency, walk_addrs = \
                        translate_l1_missed(vpn)
                    t = issue + tlb_latency
                    # Each surviving walk step reads its entry through
                    # the caches and, on a full miss, from memory.
                    for addr in walk_addrs:
                        level, latency, writebacks = access_block(
                            addr >> block_shift, False)
                        t += latency
                        if writebacks:
                            for wb_addr in writebacks:
                                if wb_addr < fam_zone_base:
                                    counters["mem.local"] += 1.0
                                    dram_access(wb_addr, t)
                                else:
                                    counters["mem.fam"] += 1.0
                                    fam_access(self, wb_addr, t, True,
                                               _KIND_WRITEBACK)
                        if level:
                            continue
                        if addr < fam_zone_base:
                            counters["mem.local"] += 1.0
                            t = dram_access(addr, t)
                        else:
                            counters["mem.fam"] += 1.0
                            t = fam_access(self, addr, t, False,
                                           _KIND_NODE_PTW)

                # --- data reference: L1 cache probe inlined ----------
                block = (frame << frame_block_shift) | blk
                lines = data_l1_sets[block & data_l1_mask
                                     if data_l1_mask >= 0
                                     else block % data_l1_n_sets]
                if block in lines:
                    data_l1_hits += 1
                    if is_write:
                        lines[block] = True
                    lines.move_to_end(block)
                    core_time = t + lat1
                else:
                    data_l1.misses += 1
                    level, latency, writebacks = hier_l1_missed(block,
                                                                is_write)
                    t += latency
                    if writebacks:
                        for wb_addr in writebacks:
                            if wb_addr < fam_zone_base:
                                counters["mem.local"] += 1.0
                                dram_access(wb_addr, t)
                            else:
                                counters["mem.fam"] += 1.0
                                fam_access(self, wb_addr, t, True,
                                           _KIND_WRITEBACK)
                    if level:
                        core_time = t
                    else:
                        npa = (frame << page_shift) | offset
                        if npa < fam_zone_base:
                            counters["mem.local"] += 1.0
                            completion = dram_access(npa, t)
                        else:
                            counters["mem.fam"] += 1.0
                            counters["mem.fam_data"] += 1.0
                            completion = fam_access(self, npa, t, is_write,
                                                    _KIND_DATA)
                        heappush(completions, completion)
                        if dependent and not is_write:
                            if completion > core_time:
                                core_time = completion
                        else:
                            floor = issue + slot_ns
                            if floor > core_time:
                                core_time = floor
                if core_time > until:
                    break
        finally:
            self.core_time_ns = core_time
            self.instructions = instructions
            self.memory_events += consumed
            tlb_l1.hits += tlb_l1_hits
            data_l1.hits += data_l1_hits
        return core_time

    def drain(self) -> float:
        """Wait for all outstanding requests; returns final time."""
        self.core_time_ns = max(self.core_time_ns,
                                self.window.latest_completion())
        return self.core_time_ns

    # ------------------------------------------------------------------
    def tag_store_probes(self) -> int:
        """Total tag-store probes this node issued (telemetry): data
        caches, both TLB levels, walk caches, the STU organization and
        the in-DRAM translation cache."""
        probes = sum(cache.accesses for cache in self.caches.levels)
        probes += self.mmu.tlb.l1.accesses + self.mmu.tlb.l2.accesses
        probes += self.mmu.walker.cache_probes
        if self.stu is not None:
            if self.stu.organization is not None:
                probes += self.stu.organization.probes
            probes += self.stu.walker.cache_probes
        if self.fam_translator is not None:
            probes += self.fam_translator.cache.probes
        return probes

    # ------------------------------------------------------------------
    def metrics(self) -> "NodeMetrics":
        """Snapshot the node's run outcome."""
        from repro.core.results import NodeMetrics

        end = max(self.core_time_ns, self.window.latest_completion())
        cycles = end * self.config.core.frequency_ghz
        counters = self.stats.snapshot()
        return NodeMetrics(
            node_id=self.node_id,
            instructions=self.instructions,
            memory_accesses=self.memory_events,
            cycles=cycles,
            runtime_ns=end,
            llc_misses=self.caches.llc_miss_count(),
            fam_data_accesses=int(self.stats.get("mem.fam_data")),
            tlb_hit_rate=self.mmu.tlb.hit_rate,
            node_walks=self.mmu.walks,
            translation_hit_rate=self.architecture.translation_hit_rate(self),
            acm_hit_rate=self.architecture.acm_hit_rate(self),
            counters=counters,
        )
