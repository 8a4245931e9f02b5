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
``run_events``.  Boxed :class:`~repro.workloads.trace.TraceEvent`
objects survive only in the :mod:`repro.core.refpath` oracle.
"""

from __future__ import annotations

import math
import random
from heapq import heappop
from typing import Iterable, List, Optional, Tuple, TYPE_CHECKING

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
        self.page_table = FourLevelPageTable(self._allocate_os_frame,
                                             name=f"{self.name}.pt")
        self.mmu = Mmu(self.page_table, config.tlb, config.ptw,
                       name=f"{self.name}.mmu")

        # --- DeACT attachments (populated per architecture) -----------
        self.fam_translator: Optional[FamTranslator] = None
        if architecture.uses_translator:
            self.fam_translator = FamTranslator(
                config.translation_cache, self.dram,
                region_base=local_usable, page_bytes=PAGE_BYTES,
                outstanding_capacity=config.fam.max_outstanding,
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
        self._page_shift = config.tlb.page_bytes.bit_length() - 1
        self._block_shift = self.caches.block_shift
        self._frame_block_shift = self._page_shift - self._block_shift

    # ------------------------------------------------------------------
    # OS: frame allocation and demand paging
    # ------------------------------------------------------------------
    def _allocate_os_frame(self) -> int:
        """Allocate a node-physical frame (byte address).

        Applies the paper's placement split: ``local_fraction`` of
        pages from node DRAM, the rest from the FAM zone (footnote 3:
        20 % local / 80 % FAM).  FAM-zone pages are backed by the
        broker immediately — the Opal grant that also installs the
        system-page-table entry and the ACM.
        """
        want_local = self._rng.random() < self.config.allocation.local_fraction
        if want_local and self._local_frames_free > 0:
            frame = self._next_local_frame
            self._next_local_frame += 1
            self._local_frames_free -= 1
            self.stats.incr("frames.local")
            return frame * PAGE_BYTES
        node_page = self._next_fam_zone_page
        self._next_fam_zone_page += 1
        self.broker.ensure_mapped(self.node_id, node_page)
        self.stats.incr("frames.fam")
        return node_page * PAGE_BYTES

    def _handle_page_fault(self, vpn: int) -> None:
        """First touch of a virtual page: allocate and map a frame."""
        frame_addr = self._allocate_os_frame()
        self.page_table.map(vpn, frame_addr // PAGE_BYTES)
        self.stats.incr("page_faults")

    # ------------------------------------------------------------------
    # Per-event path
    # ------------------------------------------------------------------
    def _memory_access_fast(self, npa: int, now: float, is_write: bool,
                            kind: RequestKind) -> float:
        """LLC-miss path: local DRAM below :attr:`fam_zone_base`, the
        architecture's FAM access procedure from it on."""
        if npa < self.fam_zone_base:
            self._stat_counters["mem.local"] += 1.0
            return self.dram.access(npa, now, is_write=is_write, kind=kind)
        self._stat_counters["mem.fam"] += 1.0
        if kind is _KIND_DATA:
            self._stat_counters["mem.fam_data"] += 1.0
        return self.architecture.fam_access_fast(self, npa, now, is_write,
                                                 kind)

    @hot_path
    def _charge_block(self, block: int, addr: int, now: float,
                      is_write: bool, kind: RequestKind) -> float:
        """Charge one block access (page-walk step) through the cache
        hierarchy and, on a full miss, the memory path."""
        level, latency, writebacks = self.caches.access_fast(block, is_write)
        t = now + latency
        for wb_addr in writebacks:
            self._memory_access_fast(wb_addr, t, True, _KIND_WRITEBACK)
        if level:
            return t
        return self._memory_access_fast(addr, t, is_write, kind)

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
        window's not-full ``admit`` are inlined.  Taking an iterator
        lets :meth:`run_decoded` feed a ``zip`` over the decoded trace
        columns, so events never materialize as boxed objects.
        Counter write-back happens in ``finally`` so a mid-trace access
        violation still leaves instruction/event counts sane.
        """
        window = self.window
        admit = window.admit
        record = window.record
        completions = window._completions
        capacity = window.capacity
        mmu = self.mmu
        translate_l1_missed = mmu.translate_after_l1_miss
        tlb_l1 = mmu.tlb.l1
        tlb_l1_sets = tlb_l1._sets
        tlb_l1_mask = tlb_l1._mask
        tlb_l1_n_sets = tlb_l1.n_sets
        caches = self.caches
        hier_l1_missed = caches.access_after_l1_miss
        data_l1 = caches._l1
        data_l1_sets = data_l1._sets
        data_l1_mask = data_l1._mask
        data_l1_n_sets = data_l1.n_sets
        data_l1_promote = data_l1._promote_on_hit
        lat1 = caches._lat1
        mapped = self.page_table._leaves  # demand-paging check
        page_fault = self._handle_page_fault
        charge_block = self._charge_block
        memory_access = self._memory_access_fast
        slot_ns = self._slot_ns
        block_shift = self._block_shift
        frame_block_shift = self._frame_block_shift
        page_shift = self._page_shift
        core_time = self.core_time_ns
        instructions = self.instructions
        admitted = 0
        translations = 0
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
                if len(completions) < capacity:
                    admitted += 1
                    issue = core_time
                else:
                    issue = admit(core_time)

                # --- translate: L1 TLB probe inlined (always LRU) ----
                if vpn not in mapped:
                    page_fault(vpn)
                translations += 1
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
                    if walk_addrs:
                        for addr in walk_addrs:
                            t = charge_block(addr >> block_shift, addr, t,
                                             False, _KIND_NODE_PTW)

                # --- data reference: L1 cache probe inlined ----------
                block = (frame << frame_block_shift) | blk
                lines = data_l1_sets[block & data_l1_mask
                                     if data_l1_mask >= 0
                                     else block % data_l1_n_sets]
                if block in lines:
                    data_l1_hits += 1
                    if is_write:
                        lines[block] = True
                    if data_l1_promote:
                        lines.move_to_end(block)
                    core_time = t + lat1
                else:
                    data_l1.misses += 1
                    level, latency, writebacks = hier_l1_missed(block,
                                                                is_write)
                    t += latency
                    if writebacks:
                        for wb_addr in writebacks:
                            memory_access(wb_addr, t, True, _KIND_WRITEBACK)
                    if level:
                        core_time = t
                    else:
                        completion = memory_access(
                            (frame << page_shift) | offset, t, is_write,
                            _KIND_DATA)
                        record(completion)
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
            window.admissions += admitted
            mmu.translations += translations
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
