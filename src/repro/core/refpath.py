"""The seed per-event simulation path, kept as a frozen reference.

The production hot path (``Trace.decoded``, then each node's
node-side pass ``Node.node_pass`` and the memory-side replay
``Node.run_events`` of the stream it builds, over the allocation-free
probe entry points underneath them) replaced the seed implementation,
which runs each event through the node side and the memory side in
one composed step and boxed every intermediate outcome into a
dataclass (``AccessResult`` per fill, ``TlbLookup`` per TLB probe,
``WalkResult`` per page walk, ``TranslationOutcome`` per translation,
``HierarchyResult`` per cache access, ``TranslatorLookup`` /
``WalkTiming`` / ``VerificationResult`` per FAM access).  This module
preserves that implementation verbatim, boxes included (only
``VerificationResult`` lives on, in ``repro.stu``), operating on the
*same* component instances so the two paths can be run against
identical state.  It is the one oracle (``FamSystem.run(reference=
True)``): the hot-path equivalence suite
(``tests/test_hot_path_equivalence``) and perfbench's prefix check
prove the production path produces **bit-identical** run stats
against it, including runs that replay a stream another cell's pass
built.  The one production change this mirror absorbs is the deferred
grant: the page table's interior-frame callback
(``Node._allocate_os_frame``) records a FAM-zone frame's grant for the
replay, so ``_ref_page_fault`` issues the recorded grants, in the
seed's order, as soon as its map returns.

Random replacement draws the same ``_randbelow`` deviate whether the
victim is picked by ``rng.choice(list(...))`` (here, as the seed did)
or by ``rng.randrange`` + ``islice`` (production).

The seed also kept bookkeeping that no result reads: fill and eviction
counts, bank busy time, window admissions, the node DRAM census, walk
and translation tallies, PTE reference bits, and a DeACT read's
outstanding-mapping register/resolve (Figure 7c) within the one call.
Production dropped it, and so does this mirror.

The production leaves of the FAM access chain — ``NvmDevice.access``,
``DramDevice.access``, ``AcmStore.check`` and ``PageTableWalker.walk``
— inline the primitives they compose.  Their seed compositions live
here (``_ref_nvm_access``, ``_ref_dram_access``, ``_ref_acm_check``,
``_ref_walker_walk``) and every procedure in this module calls them,
so the equivalence suite compares the fused leaves against the
composed ones instead of against themselves.  In particular the
production walker reads entry addresses from the page table's walk
store, while ``_ref_walker_walk`` descends the radix tree through
``FourLevelPageTable.walk_entries``.

Likewise the layers above the leaves probe and fill their tag stores
in place, call the fabric's hop primitives directly and grant a first
touch in one broker call, while this module keeps the composed seed
calls: ``TranslationCache.lookup``, the STU organizations' ``lookup``
and ``install``, ``FabricNetwork.fam_to_node_arrival`` /
``node_to_fam_arrival``, and ``_ref_page_fault``'s system-table probe
plus ``MemoryBroker.allocate_for_node``.

The tag stores' sets are shared with production, so the mirror here
uses their representation: key -> payload, with a data cache's payload
its dirty bit (the seed stored a ``[value, dirty]`` list per line).
The fill algorithm is the seed's (``_ref_fill``), except that the STU
organizations fill through their own ``install``: production fills
them in place, so the two paths still differ, and
``TestTagStoreEquivalence`` pins ``fill_line`` to the seed fill.

This module reaches into private attributes of the components it
mirrors (``_sets``, ``_rng``, ``_levels`` ...); that is intentional —
it is a white-box reference, not an API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.acm.metadata import Permission, perm_code_allows
from repro.acm.store import AcmStore
from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy
from repro.config.system import PAGE_BYTES
from repro.core.architectures import EFam, IFam, _DeactBase
from repro.core.node import Node
from repro.errors import AccessViolationError, ProtocolError
from repro.mem.device import DramDevice, NvmDevice
from repro.mem.request import RequestKind
from repro.pagetable.walker import PageTableWalker, _BITS_PER_LEVEL
from repro.pagetable.x86 import WalkStep
from repro.stu.stu import Stu, VerificationResult
from repro.tlb.mmu import Mmu
from repro.tlb.tlb import TwoLevelTlb
from repro.translator.fam_translator import _TAG_MATCH_NS, FamTranslator
from repro.workloads.trace import TraceEvent

__all__ = ["reference_step"]

_NO_WRITEBACKS: Tuple[int, ...] = ()


# ----------------------------------------------------------------------
# Seed result boxes (one allocation per outcome, as the seed made them)
# ----------------------------------------------------------------------
@dataclass
class AccessResult:
    """A tag-store fill and the line it displaced, if any."""

    hit: bool
    value: Any = None
    evicted_key: Optional[int] = None
    evicted_value: Any = None


@dataclass
class HierarchyResult:
    """A hierarchy access: serving ``level`` (0 on a full miss)."""

    level: int
    latency_ns: float
    writebacks: Tuple[int, ...] = _NO_WRITEBACKS

    @property
    def hit(self) -> bool:
        return self.level != 0


@dataclass
class TlbLookup:
    """A two-level TLB probe: ``level`` 1 or 2 on a hit, 0 on a miss."""

    level: int
    frame: Optional[int] = None
    latency_ns: float = 0.0

    @property
    def hit(self) -> bool:
        return self.level != 0


@dataclass
class WalkResult:
    """A page walk: the steps left after walk-cache filtering.

    ``steps`` are the :class:`WalkStep` levels that touch memory, root
    to leaf, always ending with the PTE level; ``skipped_levels``
    interior levels (0..3) were served by walk caches.
    """

    steps: List[WalkStep]
    skipped_levels: int
    frame: int
    entry_flags: int = 0


@dataclass
class TranslationOutcome:
    """An MMU translation, with the page-table reads a miss leaves."""

    vpn: int
    frame: int
    tlb_level: int
    tlb_latency_ns: float = 0.0
    walk_steps: List[WalkStep] = field(default_factory=list)
    walk_cache_skips: int = 0


@dataclass
class TranslatorLookup:
    """A FAM-translator lookup; ``fam_page`` is ``None`` on a miss."""

    node_page: int
    fam_page: Optional[int]
    completion_ns: float

    @property
    def hit(self) -> bool:
        return self.fam_page is not None


@dataclass
class WalkTiming:
    """An STU system-page-table walk."""

    fam_page: int
    completion_ns: float
    memory_accesses: int
    skipped_levels: int


# ----------------------------------------------------------------------
# Tag store (seed fill: one AccessResult per fill)
# ----------------------------------------------------------------------
def _ref_fill(cache: SetAssociativeCache, key: int, value) -> AccessResult:
    """The seed fill over the store's key -> payload sets.  For a data
    cache ``value`` is the dirty bit; the hierarchy only ever refills a
    resident line with ``True``, so replacing the payload is the seed's
    dirty-bit OR."""
    lines = cache._sets[key % cache.n_sets]
    if key in lines:
        lines[key] = value
        lines.move_to_end(key)
        return AccessResult(hit=True, value=value)
    evicted_key = evicted_value = None
    if len(lines) >= cache.associativity:
        if cache._rng is not None:
            victim_key = cache._rng.choice(list(lines))
            victim = lines.pop(victim_key)
        else:
            victim_key, victim = lines.popitem(last=False)
        evicted_key, evicted_value = victim_key, victim
    lines[key] = value
    return AccessResult(hit=False, value=value,
                        evicted_key=evicted_key,
                        evicted_value=evicted_value)


# ----------------------------------------------------------------------
# Memory devices and the ACM decision (seed compositions)
# ----------------------------------------------------------------------
def _ref_nvm_access(fam: NvmDevice, addr: int, now: float,
                    is_write: bool, kind: RequestKind,
                    node_id: Optional[int] = None) -> float:
    """The seed ``NvmDevice.access``: ``window.admit`` ->
    ``banks.reserve`` -> ``window.record``."""
    if is_write:
        fam.writes += 1
    else:
        fam.reads += 1
    fam.kind_counts[kind] += 1
    if kind.is_translation:
        fam.at_accesses += 1
    if node_id is not None:
        fam.node_counts[node_id] = fam.node_counts.get(node_id, 0) + 1
    issue = fam.window.admit(now)
    service = fam._write_ns if is_write else fam._read_ns
    completion = fam.banks.reserve(addr, issue, service)
    fam.window.record(completion)
    return completion


def _ref_dram_access(dram: DramDevice, addr: int, now: float) -> float:
    """The seed ``DramDevice.access``: ``banks.reserve``."""
    return dram.banks.reserve(addr, now, dram._access_ns)


def _ref_acm_check(store: AcmStore, node_id: int, fam_addr: int,
                   needed: Permission) -> Tuple[bool, bool]:
    """The seed ``AcmStore.check``: ``page_number`` -> ``is_shared``
    -> ``perm_code_allows``."""
    layout = store.layout
    entry = store.entry_of(layout.page_number(fam_addr))
    if entry is None:
        return False, False
    if entry.is_shared(layout.acm_bits):
        bitmap = store.bitmap_for_region(layout.region_of(fam_addr))
        return bitmap.allows(node_id, needed), True
    if entry.owner != node_id:
        return False, False
    return perm_code_allows(entry.perm_code, needed), False


# ----------------------------------------------------------------------
# Cache hierarchy (seed access: HierarchyResult + boxed fills)
# ----------------------------------------------------------------------
def _ref_hier_fill_all(hierarchy: CacheHierarchy, block: int,
                       write: bool) -> Tuple[int, ...]:
    writebacks: Tuple[int, ...] = _NO_WRITEBACKS
    l3_result = _ref_fill(hierarchy._l3, block, write)
    if l3_result.evicted_key is not None:
        evicted = l3_result.evicted_key
        hierarchy._l1.invalidate(evicted)
        hierarchy._l2.invalidate(evicted)
        if l3_result.evicted_value:
            writebacks = (evicted * hierarchy.block_bytes,)
    l2_result = _ref_fill(hierarchy._l2, block, write)
    if l2_result.evicted_key is not None and l2_result.evicted_value:
        _ref_fill(hierarchy._l3, l2_result.evicted_key, True)
    l1_result = _ref_fill(hierarchy._l1, block, write)
    if l1_result.evicted_key is not None and l1_result.evicted_value:
        _ref_fill(hierarchy._l2, l1_result.evicted_key, True)
    return writebacks


def _ref_hier_access(hierarchy: CacheHierarchy, addr: int,
                     write: bool) -> HierarchyResult:
    block = addr // hierarchy.block_bytes
    if hierarchy._l1.get_line(block, write) is not None:
        return HierarchyResult(1, hierarchy._lat1)
    if hierarchy._l2.get_line(block, write) is not None:
        _ref_fill(hierarchy._l1, block, write)
        return HierarchyResult(2, hierarchy._lat12)
    if hierarchy._l3.get_line(block, write) is not None:
        _ref_fill(hierarchy._l2, block, write)
        _ref_fill(hierarchy._l1, block, write)
        return HierarchyResult(3, hierarchy._lat123)
    writebacks = _ref_hier_fill_all(hierarchy, block, write)
    return HierarchyResult(0, hierarchy._lat123, writebacks)


# ----------------------------------------------------------------------
# TLB + walker + MMU (seed: TlbLookup / WalkResult / TranslationOutcome)
# ----------------------------------------------------------------------
def _ref_tlb_lookup(tlb: TwoLevelTlb, vpn: int) -> TlbLookup:
    frame = tlb.l1.get_line(vpn)
    if frame is not None:
        return TlbLookup(level=1, frame=frame, latency_ns=0.0)
    frame = tlb.l2.get_line(vpn)
    if frame is not None:
        _ref_fill(tlb.l1, vpn, frame)
        return TlbLookup(level=2, frame=frame,
                         latency_ns=tlb.config.l2_latency_ns)
    return TlbLookup(level=0, latency_ns=tlb.config.l2_latency_ns)


def _ref_tlb_install(tlb: TwoLevelTlb, vpn: int, frame: int) -> None:
    _ref_fill(tlb.l2, vpn, frame)
    _ref_fill(tlb.l1, vpn, frame)


def _ref_walker_walk(walker: PageTableWalker, vpn: int) -> WalkResult:
    all_steps, entry = walker.table.walk_entries(vpn)
    skipped = 0
    if walker._caches:
        for depth in (3, 2, 1):
            key = vpn >> (_BITS_PER_LEVEL * (4 - depth))
            if walker._caches[depth - 1].get_line(key) is not None:
                skipped = depth
                break
    needed = all_steps[skipped:]
    if walker._caches:
        for step in needed[:-1]:
            depth = step.level + 1
            key = vpn >> (_BITS_PER_LEVEL * (4 - depth))
            _ref_fill(walker._caches[depth - 1], key, True)
    return WalkResult(steps=needed, skipped_levels=skipped,
                      frame=entry.frame, entry_flags=entry.flags)


def _ref_mmu_translate(mmu: Mmu, vaddr: int) -> TranslationOutcome:
    vpn = mmu.vpn_of(vaddr)
    lookup = _ref_tlb_lookup(mmu.tlb, vpn)
    if lookup.hit:
        assert lookup.frame is not None
        return TranslationOutcome(vpn=vpn, frame=lookup.frame,
                                  tlb_level=lookup.level,
                                  tlb_latency_ns=lookup.latency_ns)
    mmu.walks += 1
    walk = _ref_walker_walk(mmu.walker, vpn)
    _ref_tlb_install(mmu.tlb, vpn, walk.frame)
    return TranslationOutcome(vpn=vpn, frame=walk.frame, tlb_level=0,
                              tlb_latency_ns=lookup.latency_ns,
                              walk_steps=walk.steps,
                              walk_cache_skips=walk.skipped_levels)


# ----------------------------------------------------------------------
# FAM translator + STU (seed: boxed lookups, walks, verifications)
# ----------------------------------------------------------------------
def _ref_translator_lookup(translator: FamTranslator, node_page: int,
                           now: float) -> TranslatorLookup:
    served = _ref_dram_access(translator.dram,
                              translator.row_address(node_page), now)
    t = served + _TAG_MATCH_NS
    fam_page = translator.cache.lookup(node_page)
    if fam_page is None:
        translator.stats.incr("misses")
    else:
        translator.stats.incr("hits")
    return TranslatorLookup(node_page=node_page, fam_page=fam_page,
                            completion_ns=t)


def _ref_translator_install(translator: FamTranslator, node_page: int,
                            fam_page: int, now: float) -> float:
    row = translator.row_address(node_page)
    read_done = _ref_dram_access(translator.dram, row, now)
    write_done = _ref_dram_access(translator.dram, row, read_done)
    _ref_fill(translator.cache._cache, node_page, fam_page)
    return write_done


def _ref_stu_walk(stu: Stu, node_page: int, now: float) -> WalkTiming:
    result = _ref_walker_walk(stu.walker, node_page)
    t = now if now > stu._ptw_busy_until else stu._ptw_busy_until
    if t > now:
        stu.stats.incr("ptw_queue_time", t - now)
    for step in result.steps:
        depart = stu.fabric.stu_to_fam_arrival(t)
        served = _ref_nvm_access(stu.fam, step.entry_addr, depart, False,
                                 RequestKind.FAM_PTW, stu.node_id)
        t = stu.fabric.fam_to_stu_arrival(served)
    stu._ptw_busy_until = t
    stu.stats.incr("walks")
    return WalkTiming(fam_page=result.frame, completion_ns=t,
                      memory_accesses=len(result.steps),
                      skipped_levels=result.skipped_levels)


def _ref_stu_verify(stu: Stu, fam_addr: int, now: float,
                    needed, enforce: bool = True) -> VerificationResult:
    layout = stu.acm_store.layout
    fam_page = layout.page_number(fam_addr)
    t = now + stu.config.lookup_ns
    organization = stu.organization
    acm_hit = organization.lookup(fam_page)
    if acm_hit:
        stu.stats.incr("acm.hits")
    else:
        stu.stats.incr("acm.misses")
        block_addr = layout.acm_block_addr(fam_addr)
        depart = stu.fabric.stu_to_fam_arrival(t)
        served = _ref_nvm_access(stu.fam, block_addr, depart, False,
                                 RequestKind.ACM, stu.node_id)
        t = stu.fabric.fam_to_stu_arrival(served)
        organization.install(fam_page)
    allowed, consulted_bitmap = _ref_acm_check(stu.acm_store, stu.node_id,
                                               fam_addr, needed)
    if consulted_bitmap:
        bitmap_addr = layout.bitmap_block_addr(fam_addr, stu.node_id)
        depart = stu.fabric.stu_to_fam_arrival(t)
        served = _ref_nvm_access(stu.fam, bitmap_addr, depart, False,
                                 RequestKind.ACM, stu.node_id)
        t = stu.fabric.fam_to_stu_arrival(served)
        stu.stats.incr("bitmap_fetches")
    if not allowed:
        stu.stats.incr("violations")
        if enforce:
            raise AccessViolationError(
                f"{stu.name}: node {stu.node_id} denied {needed!r} "
                f"at FAM {fam_addr:#x}",
                node_id=stu.node_id, fam_addr=fam_addr)
    return VerificationResult(allowed=allowed, completion_ns=t,
                              acm_hit=acm_hit,
                              bitmap_fetched=consulted_bitmap)


def _ref_ifam_translate(stu: Stu, node_page: int,
                        now: float) -> Tuple[int, float, bool]:
    t = now + stu.config.lookup_ns
    fam_page = stu.organization.lookup(node_page)
    if fam_page is not None:
        stu.stats.incr("mapping.hits")
        return fam_page, t, True
    stu.stats.incr("mapping.misses")
    walk = _ref_stu_walk(stu, node_page, t)
    stu.organization.install(node_page, walk.fam_page)
    return walk.fam_page, walk.completion_ns, False


# ----------------------------------------------------------------------
# Architecture access procedures (seed bodies)
# ----------------------------------------------------------------------
def _fam_address(node: Node, npa: int) -> int:
    """Functional system translation (what the hardware's table lookup
    would produce) — timing is charged by callers."""
    fam_page = node.broker.translate(node.node_id, npa // PAGE_BYTES)
    return fam_page * PAGE_BYTES + (npa % PAGE_BYTES)


def _needed_permission(is_write: bool) -> Permission:
    return Permission.WRITE if is_write else Permission.READ


def _ref_fam_access(node: Node, npa: int, now: float, is_write: bool,
                    kind: RequestKind) -> float:
    architecture = node.architecture
    if isinstance(architecture, EFam):
        fam_addr = _fam_address(node, npa)
        depart = node.fabric.node_to_fam_arrival(now)
        served = _ref_nvm_access(node.fam, fam_addr, depart, is_write,
                                 kind, node.node_id)
        if is_write:
            return served
        return node.fabric.fam_to_node_arrival(served)

    if isinstance(architecture, IFam):
        if node.stu is None:
            raise ProtocolError("I-FAM node has no STU attached")
        node_page = npa // PAGE_BYTES
        t = node.fabric.node_to_stu_arrival(now)
        fam_page, t, hit = _ref_ifam_translate(node.stu, node_page, t)
        node.stats.incr("stu.translation_hits" if hit
                        else "stu.translation_misses")
        fam_addr = fam_page * PAGE_BYTES + (npa % PAGE_BYTES)
        needed = _needed_permission(is_write)
        allowed, _bitmap = _ref_acm_check(node.broker.acm, node.node_id,
                                          fam_addr, needed)
        if not allowed:
            raise AccessViolationError(
                f"node {node.node_id} denied {needed!r} at FAM "
                f"{fam_addr:#x}", node_id=node.node_id, fam_addr=fam_addr)
        depart = node.fabric.stu_to_fam_arrival(t)
        served = _ref_nvm_access(node.fam, fam_addr, depart, is_write,
                                 kind, node.node_id)
        if is_write:
            return served
        return node.fabric.fam_to_node_arrival(served)

    if not isinstance(architecture, _DeactBase):
        raise ProtocolError(
            f"reference path: unknown architecture {architecture!r}")
    if node.stu is None or node.fam_translator is None:
        raise ProtocolError("DeACT node missing STU or FAM translator")
    translator = node.fam_translator
    node_page = npa // PAGE_BYTES
    offset = npa % PAGE_BYTES
    needed = _needed_permission(is_write)
    skip_verification = (node.stu.config.encrypted_memory_mode
                         and not is_write)
    lookup = _ref_translator_lookup(translator, node_page, now)
    if lookup.hit:
        fam_addr = lookup.fam_page * PAGE_BYTES + offset
        t = node.fabric.node_to_stu_arrival(lookup.completion_ns)
        if skip_verification:
            node.stats.incr("stu.reads_unverified")
        else:
            verification = _ref_stu_verify(node.stu, fam_addr, t,
                                           needed=needed)
            t = verification.completion_ns
    else:
        t = node.fabric.node_to_stu_arrival(lookup.completion_ns)
        walk = _ref_stu_walk(node.stu, node_page, t)
        fam_addr = walk.fam_page * PAGE_BYTES + offset
        if skip_verification:
            node.stats.incr("stu.reads_unverified")
            t = walk.completion_ns
        else:
            verification = _ref_stu_verify(node.stu, fam_addr,
                                           walk.completion_ns,
                                           needed=needed)
            t = verification.completion_ns
        mapping_at_node = node.fabric.stu_to_node_arrival(t)
        _ref_translator_install(translator, node_page, walk.fam_page,
                                mapping_at_node)
    depart = node.fabric.stu_to_fam_arrival(t)
    served = _ref_nvm_access(node.fam, fam_addr, depart, is_write, kind,
                             node.node_id)
    if is_write:
        return served
    return node.fabric.fam_to_node_arrival(served)


# ----------------------------------------------------------------------
# Node memory path + per-event step (seed bodies)
# ----------------------------------------------------------------------
def _ref_memory_access(node: Node, npa: int, now: float, is_write: bool,
                       kind: RequestKind) -> float:
    if npa < node.fam_zone_base:
        node.stats.incr("mem.local")
        return _ref_dram_access(node.dram, npa, now)
    node.stats.incr("mem.fam")
    if kind == RequestKind.DATA:
        node.stats.incr("mem.fam_data")
    return _ref_fam_access(node, npa, now, is_write, kind)


def _ref_cached_access(node: Node, npa: int, now: float, is_write: bool,
                       kind: RequestKind) -> Tuple[float, int]:
    result = _ref_hier_access(node.caches, npa, is_write)
    t = now + result.latency_ns
    for wb_addr in result.writebacks:
        _ref_memory_access(node, wb_addr, t, True, RequestKind.WRITEBACK)
    if result.hit:
        return t, result.level
    return _ref_memory_access(node, npa, t, is_write, kind), 0


def _ref_grant(node: Node, node_page: int) -> None:
    """The seed FAM-zone grant: system-table probe, then
    ``allocate_for_node``."""
    broker = node.broker
    if broker.system_table(node.node_id).lookup(node_page) is None:
        broker.allocate_for_node(node.node_id, node_page)


def _ref_page_fault(node: Node, vpn: int) -> None:
    """The seed first touch: the placement draw, then a local frame or
    a broker grant, then the node's map.  Interior table frames the
    map needs still come from the table's allocator callback, which
    defers their grants for the production replay; the seed granted
    each as it was allocated, so they are granted here, in order, as
    soon as the map returns (nothing else reaches the broker in
    between)."""
    want_local = node._rng.random() < node.config.allocation.local_fraction
    if want_local and node._local_frames_free > 0:
        frame = node._next_local_frame
        node._next_local_frame += 1
        node._local_frames_free -= 1
        node.stats.incr("frames.local")
        frame_addr = frame * PAGE_BYTES
    else:
        node_page = node._next_fam_zone_page
        node._next_fam_zone_page += 1
        _ref_grant(node, node_page)
        node.stats.incr("frames.fam")
        frame_addr = node_page * PAGE_BYTES
    node.page_table.map(vpn, frame_addr // PAGE_BYTES)
    for node_page in node._grants_due:
        _ref_grant(node, node_page)
    node._grants_due.clear()
    node.stats.incr("page_faults")


def _ref_node_access(node: Node, vaddr: int, is_write: bool,
                     now: float) -> Tuple[float, int]:
    vpn = node.mmu.vpn_of(vaddr)
    if vpn not in node.page_table:
        _ref_page_fault(node, vpn)
    outcome = _ref_mmu_translate(node.mmu, vaddr)
    t = now + outcome.tlb_latency_ns
    for step in outcome.walk_steps:
        t, _level = _ref_cached_access(node, step.entry_addr, t, False,
                                       RequestKind.NODE_PTW)
    npa = node.mmu.physical_address(outcome.frame, vaddr)
    return _ref_cached_access(node, npa, t, is_write, RequestKind.DATA)


def reference_step(node: Node, event: TraceEvent) -> float:
    """Advance ``node`` over one event through the seed path."""
    gap, vaddr, is_write, dependent = event
    node.instructions += gap + 1
    node.memory_events += 1
    node.core_time_ns += gap * node._slot_ns

    issue = node.window.admit(node.core_time_ns)
    completion, level = _ref_node_access(node, vaddr, is_write, issue)
    if level:
        node.core_time_ns = completion
    else:
        node.window.record(completion)
        if dependent and not is_write:
            node.core_time_ns = max(node.core_time_ns, completion)
        else:
            node.core_time_ns = max(node.core_time_ns,
                                    issue + node._slot_ns)
    return node.core_time_ns
