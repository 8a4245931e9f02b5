"""Tests for the TLB hierarchy and MMU.

``TwoLevelTlb.lookup_fast`` returns ``(level, frame, latency_ns)`` and
``Mmu.translate_fast`` returns ``(frame, tlb_level, tlb_latency_ns,
walk_steps)``; level 0 is a miss.
"""

import itertools

import pytest

from repro.config.system import PtwConfig, TlbConfig
from repro.pagetable.x86 import FourLevelPageTable
from repro.tlb.mmu import Mmu
from repro.tlb.tlb import TwoLevelTlb


def small_tlb_config():
    return TlbConfig(l1_entries=4, l2_entries=16,
                     l1_associativity=2, l2_associativity=4)


def make_mmu(ptw_entries=32):
    counter = itertools.count()
    table = FourLevelPageTable(lambda: next(counter) * 4096)
    mmu = Mmu(table, small_tlb_config(), PtwConfig(cache_entries=ptw_entries))
    return mmu, table


class TestTwoLevelTlb:
    def test_miss_then_install_then_l1_hit(self):
        tlb = TwoLevelTlb(small_tlb_config())
        assert tlb.lookup_fast(5)[0] == 0
        tlb.install(5, 50)
        assert tlb.lookup_fast(5) == (1, 50, 0.0)

    def test_l2_hit_refills_l1(self):
        tlb = TwoLevelTlb(small_tlb_config())
        tlb.install(0, 10)
        # Thrash L1 set 0 (2-way, 2 sets): vpns 2, 4 share set 0.
        for vpn in (2, 4, 6):
            tlb.install(vpn, vpn)
        if tlb.l1.probe(0) is not None:
            pytest.skip("vpn 0 survived L1 thrashing")
        assert tlb.lookup_fast(0) == (2, 10, tlb.config.l2_latency_ns)
        assert tlb.l1.probe(0) is not None

    def test_l2_hit_charges_latency(self):
        tlb = TwoLevelTlb(small_tlb_config())
        assert tlb.lookup_fast(99) == (0, -1, tlb.config.l2_latency_ns)

    def test_invalidate(self):
        tlb = TwoLevelTlb(small_tlb_config())
        tlb.install(5, 50)
        tlb.invalidate(5)
        assert tlb.lookup_fast(5)[0] == 0

    def test_flush(self):
        tlb = TwoLevelTlb(small_tlb_config())
        for vpn in range(4):
            tlb.install(vpn, vpn)
        tlb.flush()
        assert not any(tlb.lookup_fast(vpn)[0] for vpn in range(4))

    def test_hit_rate(self):
        tlb = TwoLevelTlb(small_tlb_config())
        tlb.install(1, 1)
        tlb.lookup_fast(1)
        tlb.lookup_fast(2)
        assert tlb.hit_rate == 0.5


class TestMmu:
    def test_translate_walks_on_cold_tlb(self):
        mmu, table = make_mmu()
        table.map(7, 70)
        frame, tlb_level, _latency, walk_steps = mmu.translate_fast(7)
        assert frame == 70
        assert tlb_level == 0
        assert len(walk_steps) == 4

    def test_translate_hits_after_walk(self):
        mmu, table = make_mmu()
        table.map(7, 70)
        mmu.translate_fast(7)
        frame, tlb_level, _latency, walk_steps = mmu.translate_fast(7)
        assert (frame, tlb_level) == (70, 1)
        assert walk_steps == ()

    def test_physical_address_combines_offset(self):
        mmu, table = make_mmu()
        table.map(7, 70)
        vaddr = 7 * 4096 + 123
        frame = mmu.translate_fast(mmu.vpn_of(vaddr))[0]
        assert mmu.physical_address(frame, vaddr) == 70 * 4096 + 123

    def test_walk_cache_shrinks_later_walks(self):
        mmu, table = make_mmu()
        table.map(0x100, 1)
        table.map(0x101, 2)
        mmu.translate_fast(0x100)
        walk_steps = mmu.translate_fast(0x101)[3]
        assert len(walk_steps) == 1  # only the PTE read

    def test_shootdown_forces_rewalk(self):
        mmu, table = make_mmu()
        table.map(7, 70)
        mmu.translate_fast(7)
        mmu.shootdown(7)
        _frame, tlb_level, _latency, walk_steps = mmu.translate_fast(7)
        assert tlb_level == 0
        assert len(walk_steps) == 4  # walker caches flushed too

    def test_vpn_of(self):
        mmu, _table = make_mmu()
        assert mmu.vpn_of(4096 * 9 + 17) == 9


class TestTlbCapacityValidation:
    """Regression: ``entries // associativity`` used to silently drop
    capacity when entries did not divide into whole ways — now both
    the config and the TLB constructor reject the geometry."""

    def test_tlbconfig_rejects_non_divisible_l1(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="L1 TLB"):
            TlbConfig(l1_entries=33, l1_associativity=4)

    def test_tlbconfig_rejects_non_divisible_l2(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="L2 TLB"):
            TlbConfig(l2_entries=100, l2_associativity=8)

    def test_tlbconfig_rejects_non_positive_associativity(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="associativity"):
            TlbConfig(l1_associativity=0)
        with pytest.raises(ConfigError, match="associativity"):
            TlbConfig(l2_associativity=-2)

    def test_tlb_constructor_validates_independently(self):
        # Even a config object that skipped its own validation (e.g. a
        # duck-typed stub) must not silently truncate capacity.
        from types import SimpleNamespace

        from repro.errors import ConfigError

        stub = SimpleNamespace(l1_entries=33, l1_associativity=4,
                               l2_entries=256, l2_associativity=8,
                               l2_latency_ns=3.5)
        with pytest.raises(ConfigError, match="silently drop"):
            TwoLevelTlb(stub)

    def test_tlb_constructor_rejects_zero_associativity_stub(self):
        from types import SimpleNamespace

        from repro.errors import ConfigError

        stub = SimpleNamespace(l1_entries=32, l1_associativity=0,
                               l2_entries=256, l2_associativity=8,
                               l2_latency_ns=3.5)
        with pytest.raises(ConfigError, match="must be positive"):
            TwoLevelTlb(stub)

    def test_valid_geometry_keeps_full_capacity(self):
        tlb = TwoLevelTlb(TlbConfig(l1_entries=32, l1_associativity=4,
                                    l2_entries=256, l2_associativity=8))
        assert tlb.l1.n_sets * tlb.l1.associativity == 32
        assert tlb.l2.n_sets * tlb.l2.associativity == 256
