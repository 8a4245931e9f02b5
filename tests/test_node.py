"""Tests for the compute node model.

Accesses go through :meth:`Node.step_fast`, one pre-decoded trace event
at a time.  A dependent read stalls the core until its data returns,
so for one the returned core time is the access's completion time.
"""

import pytest

from repro.broker.broker import MemoryBroker
from repro.config.presets import small_config
from repro.config.system import PAGE_BYTES
from repro.core.architectures import make_architecture
from repro.core.node import Node
from repro.core.system import FamSystem
from repro.fabric.network import FabricNetwork
from repro.mem.device import NvmDevice

BLOCK_BYTES = 64


def dram_accesses(dram):
    """Node DRAM accesses so far: every read and write reserves a
    bank."""
    return sum(bank.reservations for bank in dram.banks._banks)


def make_node(architecture="e-fam", nodes=1, local_fraction=0.2):
    from dataclasses import replace
    config = small_config(nodes=nodes)
    config = config.replace(
        allocation=replace(config.allocation,
                           local_fraction=local_fraction))
    system = FamSystem(config, architecture, seed=42)
    return system.nodes[0], system


def event(vaddr, gap=0, write=False, dependent=True):
    """``vaddr`` decomposed into :meth:`Node.step_fast` arguments, as
    :meth:`repro.workloads.trace.Trace.decoded` does for a whole trace;
    a dependent read by default."""
    offset = vaddr % PAGE_BYTES
    return (gap, vaddr // PAGE_BYTES, offset, offset // BLOCK_BYTES, write,
            dependent)


class TestDemandPaging:
    def test_first_touch_maps_page(self):
        node, _system = make_node()
        node.step_fast(*event(0x5000_0000))
        vpn = 0x5000_0000 // PAGE_BYTES
        assert node.page_table.lookup(vpn) is not None
        assert node.stats.get("page_faults") == 1

    def test_second_touch_no_fault(self):
        node, _system = make_node()
        node.step_fast(*event(0x5000_0000))
        node.step_fast(*event(0x5000_0040))
        assert node.stats.get("page_faults") == 1

    def test_placement_split(self):
        """With local_fraction=1.0 every frame is local DRAM."""
        node, _system = make_node(local_fraction=1.0)
        for page in range(20):
            node.step_fast(*event(0x5000_0000 + page * PAGE_BYTES))
        assert node.stats.get("frames.fam") == 0
        assert node.stats.get("frames.local") > 0

    def test_zero_local_fraction_goes_to_fam(self):
        node, _system = make_node(local_fraction=0.0)
        for page in range(20):
            node.step_fast(*event(0x5000_0000 + page * PAGE_BYTES))
        assert node.stats.get("frames.local") == 0
        assert node.stats.get("frames.fam") >= 20  # data + PT pages

    def test_fam_zone_pages_broker_backed(self):
        node, system = make_node(local_fraction=0.0)
        node.step_fast(*event(0x5000_0000))
        vpn = 0x5000_0000 // PAGE_BYTES
        frame = node.page_table.lookup(vpn)
        node_page = frame  # frame number == node page number
        assert system.broker.translate(0, node_page) is not None


class TestAddressMap:
    def test_fam_zone_starts_after_local(self):
        node, system = make_node()
        base = node.fam_zone_base
        assert base == node.config.local_memory.size_bytes
        # Two pages mapped either side of the boundary, their
        # translations already in the TLB: each access below is one
        # data-cache miss and no page walk.
        below, at = 0x5000_0000, 0x5000_0000 + PAGE_BYTES
        for vaddr, frame in ((below, base // PAGE_BYTES - 1),
                             (at, base // PAGE_BYTES)):
            node.page_table.map(vaddr // PAGE_BYTES, frame)
            node.mmu.tlb.install(vaddr // PAGE_BYTES, frame)
        system.broker.ensure_mapped(node.node_id, base // PAGE_BYTES)
        # The last block below the boundary is local DRAM ...
        node.step_fast(*event(at - BLOCK_BYTES))
        assert node.stats.get("mem.local") == 1
        assert node.stats.get("mem.fam") == 0
        # ... and the boundary itself is the FAM zone.
        node.step_fast(*event(at))
        assert node.stats.get("mem.local") == 1
        assert node.stats.get("mem.fam") == 1

    def test_deact_reserves_translation_cache_region(self):
        node, _system = make_node("deact-n")
        tcache_bytes = node.config.translation_cache.size_bytes
        expected_base = node.config.local_memory.size_bytes - tcache_bytes
        assert node.fam_translator.region_base == expected_base

    def test_efam_has_no_translator(self):
        node, _system = make_node("e-fam")
        assert node.fam_translator is None
        assert node.stu is None

    def test_ifam_has_stu_but_no_translator(self):
        node, _system = make_node("i-fam")
        assert node.stu is not None
        assert node.fam_translator is None


class TestAccessTiming:
    def test_cache_hit_is_fast(self):
        node, _system = make_node(local_fraction=1.0)
        node.step_fast(*event(0x5000_0000))
        start = node.core_time_ns
        dram_before = dram_accesses(node.dram)
        completion = node.step_fast(*event(0x5000_0000))
        assert dram_accesses(node.dram) == dram_before  # served on chip
        assert completion - start < 30.0

    def test_local_miss_hits_dram(self):
        node, _system = make_node(local_fraction=1.0)
        before = dram_accesses(node.dram)
        node.step_fast(*event(0x5000_0000))
        assert dram_accesses(node.dram) > before

    def test_fam_zone_miss_reaches_fam(self):
        node, system = make_node(local_fraction=0.0)
        node.step_fast(*event(0x5000_0000))
        assert system.fam.accesses > 0

    def test_fam_access_includes_fabric_latency(self):
        node, _system = make_node("e-fam", local_fraction=0.0)
        completion = node.step_fast(*event(0x5000_0000))
        assert node.stats.get("mem.fam_data") == 1  # missed every level
        assert completion >= 2 * 500.0  # round trip at least

    def test_walk_steps_charged_through_caches(self):
        node, _system = make_node(local_fraction=1.0)
        node.step_fast(*event(0x5000_0000))
        # A TLB-missing access to a fresh page in the same PMD region:
        # the walk's PTE read goes through the hierarchy.
        llc_before = node.caches.levels[2].accesses
        node.step_fast(*event(0x5000_0000 + PAGE_BYTES))
        assert node.caches.levels[2].accesses >= llc_before


class TestCoreStepping:
    def test_gap_advances_core_time(self):
        node, _system = make_node(local_fraction=1.0)
        node.step_fast(*event(0x5000_0000, gap=80, dependent=False))
        # 80 instructions at 8 slots/cycle, 0.5ns cycle = 5ns, plus
        # the access.
        assert node.core_time_ns >= 5.0
        assert node.instructions == 81

    def test_dependent_load_stalls_core(self):
        node_dep, _ = make_node("e-fam", local_fraction=0.0)
        node_ind, _ = make_node("e-fam", local_fraction=0.0)
        node_dep.step_fast(*event(0x5000_0000, dependent=True))
        node_ind.step_fast(*event(0x5000_0000, dependent=False))
        assert node_dep.core_time_ns > node_ind.core_time_ns

    def test_independent_misses_overlap(self):
        node, _system = make_node("e-fam", local_fraction=0.0)
        for page in range(8):
            node.step_fast(*event(0x5000_0000 + page * PAGE_BYTES,
                                  dependent=False))
        # Core time stays small while 8 misses are in flight.
        assert len(node.window) > 1

    def test_drain_waits_for_outstanding(self):
        node, _system = make_node("e-fam", local_fraction=0.0)
        node.step_fast(*event(0x5000_0000, dependent=False))
        before = node.core_time_ns
        after = node.drain()
        assert after >= before
        assert after >= node.window.latest_completion()

    def test_metrics_snapshot(self):
        node, _system = make_node("e-fam", local_fraction=0.0)
        for page in range(4):
            node.step_fast(*event(0x5000_0000 + page * PAGE_BYTES, gap=2,
                                  dependent=False))
        node.drain()
        metrics = node.metrics()
        assert metrics.instructions == node.instructions
        assert metrics.memory_accesses == 4
        assert metrics.cycles > 0
        assert 0 < metrics.ipc
