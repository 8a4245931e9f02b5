"""Tests for the three-level data cache hierarchy.

The hierarchy is probed with block numbers through
:meth:`CacheHierarchy.access_fast`, which returns
``(level, latency_ns, writebacks)``.
"""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.config.system import CacheConfig


def tiny_hierarchy():
    """A hierarchy small enough to force evictions quickly."""
    return CacheHierarchy(
        CacheConfig("L1", 256, associativity=2, latency_ns=1.0),
        CacheConfig("L2", 512, associativity=2, latency_ns=3.0),
        CacheConfig("L3", 1024, associativity=2, latency_ns=10.0),
    )


class TestHitPath:
    def test_cold_miss_hits_no_level(self):
        hierarchy = tiny_hierarchy()
        level, latency, writebacks = hierarchy.access_fast(0, False)
        assert level == 0
        assert latency == 14.0  # checked all three levels
        assert writebacks == ()

    def test_second_access_hits_l1(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access_fast(0, False)
        assert hierarchy.access_fast(0, False) == (1, 1.0, ())

    def test_block_granularity(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access_fast(0, False)
        assert hierarchy.contains(63) == 1  # same 64B block
        assert hierarchy.contains(64) is None

    def test_adjacent_block_misses(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access_fast(0, False)
        assert hierarchy.access_fast(1, False)[0] == 0

    def test_l2_hit_refills_l1(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access_fast(0, False)
        # Evict block 0 from L1 (2-way sets of 2: fill same L1 set).
        l1_sets = hierarchy.levels[0].n_sets
        hierarchy.access_fast(l1_sets, False)
        hierarchy.access_fast(2 * l1_sets, False)
        assert hierarchy.levels[0].probe(0) is None
        assert hierarchy.access_fast(0, False) == (2, 4.0, ())
        # And L1 now holds it again.
        assert hierarchy.levels[0].probe(0) is not None


class TestInclusivity:
    def test_l3_eviction_back_invalidates(self):
        hierarchy = tiny_hierarchy()
        l3 = hierarchy.levels[2]
        hierarchy.access_fast(0, False)
        # Fill the L3 set containing block 0 until 0 is evicted.
        block = 0
        while l3.probe(0) is not None:
            block += l3.n_sets
            hierarchy.access_fast(block, False)
        assert hierarchy.levels[0].probe(0) is None
        assert hierarchy.levels[1].probe(0) is None

    def test_inner_levels_subset_of_l3(self):
        hierarchy = tiny_hierarchy()
        for i in range(200):
            hierarchy.access_fast(i * 3, False)
        l3 = hierarchy.levels[2]
        for inner in hierarchy.levels[:2]:
            for lines in inner._sets:
                for key in lines:
                    assert key in l3, "inclusivity violated"


class TestWritebacks:
    def test_dirty_l3_eviction_reports_writeback(self):
        hierarchy = tiny_hierarchy()
        l3 = hierarchy.levels[2]
        hierarchy.access_fast(0, True)
        writebacks = []
        block = 0
        while l3.probe(0) is not None:
            block += l3.n_sets
            writebacks += hierarchy.access_fast(block, False)[2]
        assert 0 in writebacks

    def test_clean_eviction_no_writeback(self):
        hierarchy = tiny_hierarchy()
        l3 = hierarchy.levels[2]
        hierarchy.access_fast(0, False)
        writebacks = []
        block = 0
        while l3.probe(0) is not None:
            block += l3.n_sets
            writebacks += hierarchy.access_fast(block, False)[2]
        assert 0 not in writebacks


class TestRefillVictims:
    """Characterization of today's refill behaviour, which falls short
    of the paper's inclusive hierarchy (see the module docstring of
    ``repro.cache.hierarchy``).  Fixing it changes results, so it is a
    model change of its own; until then these tests pin it."""

    B = 64  # block bytes

    def _dirty_only_in_l1(self):
        """Block 2 written while resident, so only its L1 copy is
        dirty; L1 set 0 then holds {2 (dirty), 6}."""
        hierarchy = tiny_hierarchy()  # L1 2x2, L2 4x2, L3 8x2 blocks
        for block, write in ((0, False), (2, False), (2, True), (6, False)):
            hierarchy.access_fast(block, write)
        l1, l2, l3 = hierarchy.levels
        assert l1.probe(2) is True
        assert l2.probe(2) is False and l3.probe(2) is False
        return hierarchy

    def test_full_miss_passes_dirty_l1_victim_to_l2(self):
        hierarchy = self._dirty_only_in_l1()
        level, _lat, _wb = hierarchy.access_fast(4, False)  # evicts L1's 2
        assert level == 0  # full miss
        l1, l2, _l3 = hierarchy.levels
        assert l1.probe(2) is None
        assert l2.probe(2) is True

    def test_l2_hit_refill_drops_dirty_l1_victim(self):
        hierarchy = self._dirty_only_in_l1()
        level, _lat, _wb = hierarchy.access_fast(0, False)  # evicts L1's 2
        assert level == 2  # L2 hit
        l1, l2, l3 = hierarchy.levels
        assert l1.probe(2) is None
        # The write to block 2 is gone: no level holds it dirty ...
        assert l2.probe(2) is False and l3.probe(2) is False
        # ... so evicting it from L3 writes nothing back.
        writebacks = []
        for block in (10, 18):  # L3 set 2
            writebacks += hierarchy.access_fast(block, False)[2]
        assert l3.probe(2) is None
        assert 2 * self.B not in writebacks

    def test_l2_eviction_leaves_l1_copy(self):
        hierarchy = CacheHierarchy(
            CacheConfig("L1", 256, associativity=4, latency_ns=1.0),
            CacheConfig("L2", 512, associativity=1, latency_ns=3.0),
            CacheConfig("L3", 2048, associativity=2, latency_ns=10.0))
        hierarchy.access_fast(0, False)
        hierarchy.access_fast(8, False)  # same direct-mapped L2 set as 0
        l1, l2, l3 = hierarchy.levels
        assert l2.probe(0) is None
        # L1 is not a subset of L2: block 0 stays in L1 (and L3).
        assert l1.probe(0) is False and l3.probe(0) is False
        assert hierarchy.access_fast(0, False)[0] == 1


class TestStats:
    def test_llc_miss_count(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access_fast(0, False)
        hierarchy.access_fast(0, False)
        hierarchy.access_fast(100, False)
        assert hierarchy.llc_miss_count() == 2

    def test_contains(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access_fast(0, False)
        assert hierarchy.contains(0) == 1
        assert hierarchy.contains(10_000_000) is None

    def test_table_ii_geometry(self):
        """The default Table II hierarchy has the right set counts."""
        from repro.config.presets import default_config
        config = default_config()
        hierarchy = CacheHierarchy(config.l1, config.l2, config.l3)
        assert hierarchy.levels[0].n_sets * 8 * 64 == 32 * 1024
        assert hierarchy.levels[1].n_sets * 8 * 64 == 256 * 1024
        assert hierarchy.levels[2].n_sets * 16 * 64 == 1024 * 1024
