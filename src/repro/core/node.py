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

The production path runs in two parts.  :meth:`Node.node_pass` is the
node side: one run over the node's whole decoded trace that probes the
TLB, walks the node page table, probes the data caches and places
frames, and turns the trace into a compact :class:`NodeStream` — per
event, the on-chip latencies in the order they add up and the ordered
memory requests (walk-step misses, dirty write-backs, the data miss),
with the broker grants a first touch needs recorded, not issued.  An
event that never leaves the chip is recorded as the bare latency the
hierarchy returned.  :meth:`Node.run_events` is the memory side: it
replays a stream through the core window, local DRAM, the grants and
the architecture's FAM access procedure (translator, fabric, STU/ACM,
FAM), stopping at an ``until`` bound for the multi-node driver.  Since
the node side reads no clock and nothing past the last-level cache,
one stream serves every cell that shares the node-side inputs (see
:class:`NodeStream`), and a node that replays a stream another node
built takes its counters (:meth:`Node.adopt`).  :meth:`Node.step_fast`
is a one-event pass and replay.  Each modeled operation is one call
into the layer that owns it — a walk step into the cache hierarchy, an
LLC miss or write-back into local DRAM or the architecture's FAM
access procedure — with no node-level helper in between.  A first
touch is straight-line code in :meth:`Node._handle_page_fault`: the
placement draw, then a local frame or one deferred broker grant, then
one map.  Boxed :class:`~repro.workloads.trace.TraceEvent` objects, the
seed's composed page fault and its one-call-per-event step survive only
in the :mod:`repro.core.refpath` oracle.
"""

from __future__ import annotations

import math
import random
import weakref
from heapq import heappop, heappush
from operator import attrgetter
from typing import (Callable, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, TYPE_CHECKING)

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
from repro.workloads.trace import DecodedTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.architectures import Architecture
    from repro.core.results import NodeMetrics
    from repro.stu.stu import Stu

__all__ = ["Node", "NodeStream"]

#: Enum attribute lookups hoisted off the per-event path.
_KIND_DATA = RequestKind.DATA
_KIND_NODE_PTW = RequestKind.NODE_PTW
_KIND_WRITEBACK = RequestKind.WRITEBACK

_INF = math.inf

#: The :attr:`Node.stats` counters the node-side pass keeps.
_NODE_SIDE_COUNTERS = ("page_faults", "frames.local", "frames.fam",
                       "mem.local", "mem.fam", "mem.fam_data")
_ZEROS = (0.0,) * len(_NODE_SIDE_COUNTERS)
_HITS_MISSES = attrgetter("hits", "misses")


class NodeStream(NamedTuple):
    """One node's trace after its node-side pass
    (:meth:`Node.node_pass`): what the memory side replays.

    A stream is a pure function of the node-side inputs: the node's
    trace, its index (which seeds its placement draws), the L1/L2/L3,
    TLB and node page-walk configurations, the local DRAM size and
    ``local_fraction``, and the system seed.  It reads no clock and
    nothing past the last-level cache, so every cell that shares those
    inputs can replay one stream, whatever its architecture, STU, ACM,
    translation cache, fabric or FAM (see :meth:`Node.can_adopt` for
    the one exception).  Nothing mutates a stream once built.
    """

    #: The trace's gap column: non-memory instructions before each
    #: event.
    gaps: Sequence[int]
    #: One record per event (see :meth:`Node._pass_events`).
    records: List[object]
    #: ``(instructions, memory_events, walks, store_counts, counters)``
    #: as the pass left them: the hits and misses of each node-side
    #: tag store and the node-side :attr:`Node.stats` counters (0.0
    #: for one the node never counted).
    totals: Tuple
    #: ``(free local frames, next local frame, next FAM-zone page)``
    #: when the pass began, after the root table's placement.
    start: Tuple[int, int, int]
    #: Local frames the pass placed.
    local_frames: int


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
        # Grants a first touch makes, in order, until the pass hands
        # them to the replay (see _pass_events).
        self._grants_due: List[int] = []
        self._defer_grant = self._grants_due.append
        # The table's interior-frame callback holds the node weakly, so
        # a dropped system is freed by reference counting instead of
        # waiting, with all its tag stores, for the cyclic collector.
        allocate_frame = weakref.WeakMethod(self._allocate_os_frame)
        self.page_table = FourLevelPageTable(lambda: allocate_frame()(),
                                             name=f"{self.name}.pt")
        self._map = self.page_table.map
        # The root table's frame is placed now, so a FAM-zone root is
        # granted now, as every node's is, in node order.
        for node_page in self._grants_due:
            self._grant(node_id, node_page)
        self._grants_due.clear()
        self.mmu = Mmu(self.page_table, config.tlb, config.ptw,
                       name=f"{self.name}.mmu")
        #: The tag stores the node-side pass probes, in the order of
        #: :attr:`NodeStream.totals`.
        self._node_stores = (*self.caches.levels, self.mmu.tlb.l1,
                             self.mmu.tlb.l2, *self.mmu.walker._caches)

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
        20 % local / 80 % FAM).  A FAM-zone page needs the broker's
        grant — the Opal grant that also installs the system-page-table
        entry and the ACM — which is deferred to the replay, in order
        (:meth:`_pass_events`).  A first touch makes the same choice in
        line (:meth:`_handle_page_fault`).
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
        self._defer_grant(node_page)
        self._stat_counters["frames.fam"] += 1.0
        return node_page * PAGE_BYTES

    def _handle_page_fault(self, vpn: int) -> None:
        """First touch of a virtual page: allocate and map a frame.

        The placement draw and the local vs FAM-zone choice are made
        here, as :meth:`_allocate_os_frame` makes them; a FAM-zone
        frame is one deferred broker grant, and the map one call, whose
        interior tables still come from :meth:`_allocate_os_frame`.
        The seed body is :func:`repro.core.refpath._ref_page_fault`,
        which grants at once.
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
            self._defer_grant(frame)
            counters["frames.fam"] += 1.0
        self._map(vpn, frame)
        counters["page_faults"] += 1.0

    # ------------------------------------------------------------------
    # Per-event path: the node-side pass, then the memory-side replay
    # ------------------------------------------------------------------
    def node_pass(self, decoded: "DecodedTrace") -> "NodeStream":
        """Run the node side of a whole decoded trace; returns the
        stream the memory side replays (:meth:`run_events`).

        The pass probes the TLB, walks the node page table, probes the
        data caches and places frames, event by event, and counts
        everything it decides; broker grants are recorded, in order,
        for the replay to issue.  The stream's :attr:`NodeStream.totals`
        are the node-side counters the pass left, so a node that
        replays a stream built by another node's pass can
        :meth:`adopt` them instead of running the pass itself.
        """
        budget = self._local_frames_free
        start = (budget, self._next_local_frame, self._next_fam_zone_page)
        records: List[object] = []
        self._pass_events(zip(decoded.vpns, decoded.offsets, decoded.blocks,
                              decoded.writes, decoded.dependents),
                          records.append, {}.setdefault)
        events = len(decoded.gaps)
        self.instructions += events + sum(decoded.gaps)
        self.memory_events += events
        counters = self._stat_counters
        totals = (self.instructions, self.memory_events, self.mmu.walks,
                  tuple(map(_HITS_MISSES, self._node_stores)),
                  tuple(map(counters.get, _NODE_SIDE_COUNTERS, _ZEROS)))
        return NodeStream(decoded.gaps, records, totals, start,
                          budget - self._local_frames_free)

    def can_adopt(self, stream: "NodeStream") -> bool:
        """Whether this node, which has run nothing yet, may replay
        ``stream`` without running its own pass.

        Every node-side input but one is in the key a stream is shared
        under; the exception is the local frame budget, which is
        smaller when the architecture reserves a translation cache.
        The stream's placements hold for this node when the root table
        went where the pass's node put it and the budget is the one
        the pass ran with, or the pass never found the local pool
        empty and this node has at least as many frames: then every
        placement draw that chose local DRAM found a frame here too.
        """
        free, next_local, next_fam = stream.start
        if (self.memory_events or self._next_local_frame != next_local
                or self._next_fam_zone_page != next_fam):
            return False
        budget = self._local_frames_free
        return (budget == free
                or stream.local_frames < free
                and budget >= stream.local_frames)

    def adopt(self, stream: "NodeStream") -> None:
        """Take ``stream``'s node-side totals in place of running the
        pass (see :meth:`can_adopt`).  The pass ran on a node built
        like this one, so the totals are this node's as the pass would
        leave them, the root table's frame included.  The node's tag
        stores and page table stay empty; their counters, the
        instruction and event counts and the node-side :attr:`stats`
        read as if the pass had run here."""
        instructions, events, walks, stores, counters = stream.totals
        self.instructions = instructions
        self.memory_events = events
        self.mmu.walks = walks
        for store, (hits, misses) in zip(self._node_stores, stores):
            store.hits = hits
            store.misses = misses
        for key, value in zip(_NODE_SIDE_COUNTERS, counters):
            if value:
                self._stat_counters[key] = value

    def step_fast(self, gap: int, vpn: int, offset: int, blk: int,
                  is_write: bool, dependent: bool) -> float:
        """Advance the core over one pre-decoded trace event (a
        one-event pass and replay); returns the new core time.

        ``vpn`` / ``offset`` / ``blk`` are the event's virtual page
        number, page offset and block-within-page, as decomposed by
        :meth:`repro.workloads.trace.Trace.decoded`.  No simulator
        path calls this; it stays as the named one-event entry point
        that ``perfbench/layers.py`` wraps.
        """
        stream = self.node_pass(DecodedTrace(
            (gap,), (vpn,), (offset,), (blk,), (is_write,), (dependent,)))
        return self.run_events(zip(stream.gaps, stream.records))

    @hot_path
    def _pass_events(self, events: "Iterable[Tuple]",
                     emit: "Callable[[object], None]",
                     intern: "Callable[[Tuple, Tuple], Tuple]") -> None:
        """The node-side loop of :meth:`node_pass`: ``emit`` one record
        per ``(vpn, offset, block, is_write, dependent)`` event.

        A record is, by the work the event leaves for the memory side
        (``miss`` is a data miss, ``npa << 2 | code`` with ``npa`` the
        node-physical data address and ``code`` 2 for a write, 1 for a
        dependent read and 0 for an independent one, or ``None`` when
        the data was served on chip):

        * a ``float`` — the event hit the L1 TLB and a data cache
          level: its on-chip latency, the object the hierarchy
          returned (shared between events);
        * an ``int`` — it hit the L1 TLB and missed every data cache
          level with no write-back: its ``miss`` (the latency is the
          full lookup);
        * a pair ``(latencies, miss)`` — it missed the L1 TLB, granted
          nothing, every walk step was served on chip and nothing was
          written back: the on-chip latencies in the order they add
          up (TLB, walk steps, data).  Equal latency tuples, and equal
          pairs without a miss, are one object (``intern``);
        * otherwise ``(grants, ops, miss)``: the FAM-zone pages the
          event's first touch granted, then its work up to the data
          miss in order, one op each: a ``float`` latency to add, an
          ``int`` address ``>= 0`` a walk step's read from memory, and
          ``~addr`` (``< 0``) a dirty victim's write-back.

        Grants ride on an L1 TLB miss because a first touch always
        misses the L1 TLB: nothing maps a page twice, so no TLB holds
        a page before its first touch.  The L1 TLB and L1 data-cache
        probes are inlined; a walk step is one
        :meth:`~repro.cache.hierarchy.CacheHierarchy.access_fast`, an
        L1 data miss one ``access_after_l1_miss``.  The ``mem.*``
        counters count the requests the records leave for local DRAM
        and the FAM zone.
        """
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
        grants_due = self._grants_due
        fam_zone_base = self.fam_zone_base
        block_shift = self._block_shift
        frame_block_shift = self._frame_block_shift
        page_shift = self._page_shift
        tlb_l1_hits = 0
        data_l1_hits = 0
        local = 0
        fam = 0
        fam_data = 0
        try:
            for vpn, offset, blk, is_write, dependent in events:
                # --- translate: L1 TLB probe inlined (always LRU) ----
                if vpn not in mapped:
                    page_fault(vpn)
                lines = tlb_l1_sets[vpn & tlb_l1_mask if tlb_l1_mask >= 0
                                    else vpn % tlb_l1_n_sets]
                frame = lines.get(vpn)
                if frame is not None:
                    tlb_l1_hits += 1
                    lines.move_to_end(vpn)
                    ops = None
                    grants = ()
                else:
                    tlb_l1.misses += 1
                    frame, _lvl, tlb_latency, walk_addrs = \
                        translate_l1_missed(vpn)
                    # Each surviving walk step reads its entry through
                    # the caches and, on a full miss, from memory.
                    ops = (tlb_latency,)
                    on_chip = True
                    for addr in walk_addrs:
                        level, latency, writebacks = access_block(
                            addr >> block_shift, False)
                        ops += (latency,)
                        for wb_addr in writebacks:
                            on_chip = False
                            ops += (~wb_addr,)
                            if wb_addr < fam_zone_base:
                                local += 1
                            else:
                                fam += 1
                        if not level:
                            on_chip = False
                            ops += (addr,)
                            if addr < fam_zone_base:
                                local += 1
                            else:
                                fam += 1
                    if grants_due:
                        on_chip = False
                        grants = tuple(grants_due)
                        grants_due.clear()
                    else:
                        grants = ()

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
                    latency = lat1
                    miss = None
                    writebacks = ()
                else:
                    data_l1.misses += 1
                    level, latency, writebacks = hier_l1_missed(block,
                                                                is_write)
                    if level:
                        miss = None
                    else:
                        npa = (frame << page_shift) | offset
                        miss = npa << 2 | (2 if is_write else dependent)
                        if npa < fam_zone_base:
                            local += 1
                        else:
                            fam += 1
                            fam_data += 1
                if ops is None and not writebacks:
                    emit(latency if miss is None else miss)
                elif ops is not None and on_chip and not writebacks:
                    ops = intern(ops + (latency,), ops + (latency,))
                    emit(intern((ops, None), (ops, None)) if miss is None
                         else (ops, miss))
                else:
                    ops = (ops or ()) + (latency,)
                    for wb_addr in writebacks:
                        ops += (~wb_addr,)
                        if wb_addr < fam_zone_base:
                            local += 1
                        else:
                            fam += 1
                    emit((grants, ops, miss))
        finally:
            tlb_l1.hits += tlb_l1_hits
            data_l1.hits += data_l1_hits
            counters = self._stat_counters
            if local:
                counters["mem.local"] += local
            if fam:
                counters["mem.fam"] += fam
            if fam_data:
                counters["mem.fam_data"] += fam_data

    @hot_path
    def run_events(self, events: "Iterator[Tuple]",
                   until: float = _INF) -> float:
        """The memory-side replay: drain ``events`` — ``(gap, record)``
        pairs, ``zip(stream.gaps, stream.records)`` of a
        :class:`NodeStream` — through the core window, local DRAM and
        the architecture's FAM access procedure; returns the core time.

        The loop stops early, right after the first event that leaves
        the core time above ``until``; the events not yet taken stay
        in the iterator.  The multi-node driver derives ``until`` from
        its heap's next key, so one call runs a node for as long as the
        per-event heap would have kept picking it.

        The replay adds each on-chip latency of a record in the order
        the pass met it, one addition each, so every simulated time is
        the float the one-step-per-event reference path computes.  The window's not-full ``admit`` and
        ``record`` are inlined; each memory request is one
        ``DramDevice.access`` below :attr:`fam_zone_base` or one
        ``Architecture.fam_access_fast`` from it on, and each grant one
        ``MemoryBroker.ensure_mapped``, issued before the event's first
        request.  Those callees are looked up once per call, so a
        wrapper installed on their class before the call sees them.
        The core time is written back in ``finally``, so a mid-trace
        access violation still leaves it sane.
        """
        window = self.window
        admit = window.admit
        completions = window._completions
        capacity = window.capacity
        full_miss_ns = self.caches._lat123
        dram_access = self.dram.access
        fam_access = self.architecture.fam_access_fast
        grant = self._grant
        node_id = self.node_id
        fam_zone_base = self.fam_zone_base
        slot_ns = self._slot_ns
        core_time = self.core_time_ns
        try:
            for gap, record in events:
                core_time += gap * slot_ns

                # --- issue: the window's not-full admit inlined ------
                while completions and completions[0] <= core_time:
                    heappop(completions)
                issue = (core_time if len(completions) < capacity
                         else admit(core_time))

                kind = record.__class__
                if kind is float:  # served on chip
                    core_time = issue + record
                    if core_time > until:
                        break
                    continue
                if kind is int:  # L1 TLB hit, full data miss
                    t = issue + full_miss_ns
                    miss = record
                elif len(record) == 2:  # every latency on chip
                    lats, miss = record
                    t = issue
                    for latency in lats:
                        t += latency
                else:  # grants, then any op off chip
                    grants, ops, miss = record
                    for page in grants:
                        grant(node_id, page)
                    t = issue
                    for op in ops:
                        if op.__class__ is float:
                            t += op
                        elif op >= 0:  # a walk step's read
                            if op < fam_zone_base:
                                t = dram_access(op, t)
                            else:
                                t = fam_access(self, op, t, False,
                                               _KIND_NODE_PTW)
                        else:  # a write-back
                            op = ~op
                            if op < fam_zone_base:
                                dram_access(op, t)
                            else:
                                fam_access(self, op, t, True,
                                           _KIND_WRITEBACK)

                # --- the data miss, if any: ``npa << 2 | code`` -------
                if miss is None:
                    core_time = t
                else:
                    npa = miss >> 2
                    code = miss & 3
                    if npa < fam_zone_base:
                        completion = dram_access(npa, t)
                    else:
                        completion = fam_access(self, npa, t, code == 2,
                                                _KIND_DATA)
                    heappush(completions, completion)
                    if code == 1:  # a dependent read stalls the core
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
