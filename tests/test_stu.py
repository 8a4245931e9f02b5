"""Tests for the STU: cache organizations and the unit itself."""

import itertools

import pytest

from repro.acm.metadata import PERM_RO, PERM_RW, Permission
from repro.acm.layout import FamLayout
from repro.acm.store import AcmStore
from repro.config.system import FabricConfig, FamConfig, GIB, StuConfig
from repro.errors import AccessViolationError, ProtocolError
from repro.fabric.network import FabricNetwork
from repro.mem.device import NvmDevice
from repro.pagetable.walker import PageTableWalker
from repro.pagetable.x86 import FourLevelPageTable
from repro.stu.organizations import (
    DeactNAcmCache,
    DeactWAcmCache,
    IFamStuCache,
)
from repro.stu.stu import Stu


def small_stu_config(**overrides):
    defaults = dict(entries=16, associativity=4)
    defaults.update(overrides)
    return StuConfig(**defaults)


class TestIFamOrganization:
    def test_install_lookup(self):
        cache = IFamStuCache(small_stu_config())
        assert cache.lookup(5) is None
        cache.install(5, 500)
        assert cache.lookup(5) == 500

    def test_capacity_coverage(self):
        cache = IFamStuCache(small_stu_config())
        assert cache.coverage_pages == 16

    def test_eviction_by_capacity(self):
        config = small_stu_config()
        cache = IFamStuCache(config)
        # Fill one set (4 ways): keys congruent mod n_sets.
        n_sets = config.n_sets
        keys = [i * n_sets for i in range(5)]
        for key in keys:
            cache.install(key, key)
        resident = [k for k in keys if cache.lookup(k) is not None]
        assert len(resident) == 4

    def test_invalidate(self):
        cache = IFamStuCache(small_stu_config())
        cache.install(5, 500)
        assert cache.invalidate_node_page(5)
        assert cache.lookup(5) is None


class TestDeactWOrganization:
    def test_group_covers_contiguous_pages(self):
        """16-bit ACM: one way covers 4 contiguous FAM pages (52 // 16
        = 3 extra + the tagged one; the paper rounds to 4)."""
        cache = DeactWAcmCache(small_stu_config(acm_bits=16))
        assert cache.pages_per_way == 3  # 52 // 16
        cache.install(0)
        assert cache.lookup(1)   # same group
        assert cache.lookup(2)
        assert not cache.lookup(3)  # next group

    def test_width_changes_group_size(self):
        assert DeactWAcmCache(small_stu_config(acm_bits=8)).pages_per_way == 6
        assert DeactWAcmCache(small_stu_config(acm_bits=32)).pages_per_way == 1

    def test_coverage_scales_with_group(self):
        cache = DeactWAcmCache(small_stu_config(acm_bits=16))
        assert cache.coverage_pages == 16 * 3

    def test_scattered_pages_waste_capacity(self):
        """Random (non-contiguous) pages: each occupies a whole way —
        the paper's DeACT-W failure mode."""
        cache = DeactWAcmCache(small_stu_config(acm_bits=16))
        pages = [i * 1000 for i in range(30)]
        for page in pages:
            cache.install(page)
        resident = sum(cache.lookup(p) for p in pages)
        assert resident <= 16  # no better than entry count


class TestDeactNOrganization:
    def test_subways_double_capacity(self):
        config = small_stu_config(subways_per_way=2)
        cache = DeactNAcmCache(config)
        assert cache.coverage_pages == 32

    def test_non_contiguous_pages_all_fit(self):
        cache = DeactNAcmCache(small_stu_config(subways_per_way=2))
        n_sets = small_stu_config().n_sets
        pages = [i * n_sets * 1000 + 3 for i in range(8)]
        for page in pages:
            cache.install(page)
        assert all(cache.lookup(p) for p in pages[-8:])

    def test_one_subway_matches_physical_ways(self):
        cache = DeactNAcmCache(small_stu_config(subways_per_way=1))
        assert cache.coverage_pages == 16


def build_stu(organization, acm_bits=16, node_id=0):
    layout = FamLayout(1 * GIB, acm_bits=acm_bits)
    store = AcmStore(layout)
    counter = itertools.count(1000)
    table = FourLevelPageTable(lambda: next(counter) * 4096)
    walker = PageTableWalker(table, cache_entries=0)
    fabric = FabricNetwork(FabricConfig())
    fam = NvmDevice(FamConfig(capacity_bytes=1 * GIB))
    config = small_stu_config(acm_bits=acm_bits)
    stu = Stu(node_id, config, store, walker, fabric, fam, organization,
              name="stu-test")
    return stu, store, table


class TestStuWalks:
    def test_walk_returns_mapping_and_serial_time(self):
        stu, _store, table = build_stu(IFamStuCache(small_stu_config()))
        table.map(0x42, 777)
        fam_page, completion = stu.walk_system_table_fast(0x42, now=0.0)
        assert fam_page == 777
        assert stu.fam.snapshot()["kind.fam_ptw"] == 4
        # Four serial FAM round trips: > 4 * (400 + 60 + 400).
        assert completion > 4 * 860

    def test_concurrent_walks_serialize_at_ptw_unit(self):
        stu, _store, table = build_stu(IFamStuCache(small_stu_config()))
        table.map(0x1, 1)
        table.map(0x2, 2)
        _page, first_done = stu.walk_system_table_fast(0x1, now=0.0)
        _page, second_done = stu.walk_system_table_fast(0x2, now=0.0)
        # The second walk queues behind the first.
        assert second_done >= first_done + 4 * 860

    def test_ifam_translate_hit_skips_walk(self):
        stu, _store, table = build_stu(IFamStuCache(small_stu_config()))
        table.map(0x42, 777)
        stu.ifam_translate(0x42, now=0.0)
        fam_page, t, hit = stu.ifam_translate(0x42, now=100.0)
        assert hit
        assert fam_page == 777
        assert t == pytest.approx(100.0 + stu.config.lookup_ns)

    def test_ifam_translate_needs_ifam_cache(self):
        stu, _store, _table = build_stu(
            DeactNAcmCache(small_stu_config()))
        with pytest.raises(ProtocolError):
            stu.ifam_translate(0x1, now=0.0)


class TestStuVerification:
    def test_owner_access_allowed(self):
        stu, store, _table = build_stu(DeactNAcmCache(small_stu_config()))
        store.set_owner(10, node_id=0, perm_code=PERM_RW)
        result = stu.verify_access(10 * 4096, now=0.0,
                                   needed=Permission.WRITE)
        assert result.allowed
        assert not result.acm_hit  # cold cache: fetched from FAM

    def test_acm_cached_on_second_access(self):
        stu, store, _table = build_stu(DeactNAcmCache(small_stu_config()))
        store.set_owner(10, node_id=0, perm_code=PERM_RW)
        stu.verify_access(10 * 4096, now=0.0)
        result = stu.verify_access(10 * 4096, now=5000.0)
        assert result.acm_hit
        # Cached check is just the lookup latency.
        assert result.completion_ns == pytest.approx(
            5000.0 + stu.config.lookup_ns)

    def test_foreign_access_raises(self):
        stu, store, _table = build_stu(DeactNAcmCache(small_stu_config()))
        store.set_owner(10, node_id=3, perm_code=PERM_RW)  # owned by 3
        with pytest.raises(AccessViolationError):
            stu.verify_access(10 * 4096, now=0.0)

    def test_enforce_false_reports_without_raising(self):
        stu, store, _table = build_stu(DeactNAcmCache(small_stu_config()))
        store.set_owner(10, node_id=3, perm_code=PERM_RW)
        result = stu.verify_access(10 * 4096, now=0.0, enforce=False)
        assert not result.allowed
        assert stu.stats.get("violations") == 1

    def test_write_needs_write_permission(self):
        stu, store, _table = build_stu(DeactNAcmCache(small_stu_config()))
        store.set_owner(10, node_id=0, perm_code=PERM_RO)
        assert stu.verify_access(10 * 4096, now=0.0,
                                 needed=Permission.READ).allowed
        with pytest.raises(AccessViolationError):
            stu.verify_access(10 * 4096, now=0.0, needed=Permission.WRITE)

    def test_shared_page_fetches_bitmap(self):
        stu, store, _table = build_stu(DeactNAcmCache(small_stu_config()))
        store.mark_shared(10)
        store.bitmap_for_region(0).grant(0, PERM_RW)
        result = stu.verify_access(10 * 4096, now=0.0)
        assert result.allowed
        assert result.bitmap_fetched
        assert stu.stats.get("bitmap_fetches") == 1

    def test_denied_shared_read_reports_bitmap_outcome(self):
        stu, store, _table = build_stu(DeactNAcmCache(small_stu_config()))
        store.mark_shared(10)
        store.bitmap_for_region(0).grant(1, PERM_RW)  # not node 0
        first = stu.verify_access(10 * 4096, now=0.0, enforce=False)
        assert not first.allowed
        assert first.bitmap_fetched
        assert not first.acm_hit  # cold cache: fetched from FAM
        repeat = stu.verify_access(10 * 4096, now=10_000.0, enforce=False)
        assert not repeat.allowed
        assert repeat.bitmap_fetched
        assert repeat.acm_hit
        assert stu.stats.get("violations") == 2
        assert stu.stats.get("bitmap_fetches") == 2

    def test_verify_needs_deact_cache(self):
        stu, _store, _table = build_stu(IFamStuCache(small_stu_config()))
        with pytest.raises(ProtocolError):
            stu.verify_access(4096, now=0.0)

    def test_invalidate_fam_page_drops_acm(self):
        stu, store, _table = build_stu(DeactNAcmCache(small_stu_config()))
        store.set_owner(10, node_id=0, perm_code=PERM_RW)
        stu.verify_access(10 * 4096, now=0.0)
        stu.invalidate_fam_page(10)
        result = stu.verify_access(10 * 4096, now=10_000.0)
        assert not result.acm_hit
