"""Tests for the four-level page table and walker."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TranslationFault
from repro.pagetable.walker import PageTableWalker
from repro.pagetable.x86 import FourLevelPageTable


def make_table():
    counter = itertools.count()
    return FourLevelPageTable(lambda: next(counter) * 4096, name="t")


class TestMapping:
    def test_map_then_lookup(self):
        table = make_table()
        table.map(0x123, 77)
        entry = table.lookup(0x123)
        assert entry is not None
        assert entry.frame == 77

    def test_unmapped_lookup_is_none(self):
        assert make_table().lookup(0x999) is None

    def test_contains(self):
        table = make_table()
        table.map(5, 1)
        assert 5 in table
        assert 6 not in table

    def test_remap_replaces(self):
        table = make_table()
        table.map(5, 1)
        table.map(5, 2)
        assert table.lookup(5).frame == 2
        assert table.mapped_pages == 1

    def test_unmap(self):
        table = make_table()
        table.map(5, 1)
        assert table.unmap(5) is True
        assert table.unmap(5) is False
        assert table.lookup(5) is None

    def test_translate_raises_on_unmapped(self):
        with pytest.raises(TranslationFault):
            make_table().translate(42)

    def test_table_pages_allocated_lazily(self):
        table = make_table()
        assert table.table_pages == 1  # root only
        table.map(0, 1)
        assert table.table_pages == 4  # root + PUD + PMD + PTE
        table.map(1, 2)  # same subtree: no new tables
        assert table.table_pages == 4
        table.map(1 << 27, 3)  # different PGD slot: 3 new tables
        assert table.table_pages == 7

    def test_iter_mappings(self):
        table = make_table()
        table.map(7, 70)
        table.map(1 << 20, 71)
        found = dict(table.iter_mappings())
        assert found[7].frame == 70
        assert found[1 << 20].frame == 71


class TestSplitVpn:
    def test_known_split(self):
        # vpn with 9-bit groups: [1, 2, 3, 4]
        vpn = (1 << 27) | (2 << 18) | (3 << 9) | 4
        assert FourLevelPageTable.split_vpn(vpn) == [1, 2, 3, 4]

    @given(st.integers(min_value=0, max_value=(1 << 36) - 1))
    def test_split_reassembles(self, vpn):
        parts = FourLevelPageTable.split_vpn(vpn)
        rebuilt = 0
        for part in parts:
            rebuilt = (rebuilt << 9) | part
        assert rebuilt == vpn


def entry_addrs(steps):
    return [step.entry_addr for step in steps]


# make_table() hands out frames 0, 4096, 8192, ...: the root is frame 0,
# and the first map() draws the PUD, PMD and PTE tables in that order.
ROOT, PUD, PMD, PTE = 0, 4096, 8192, 12288


class TestWalk:
    def test_walk_has_four_steps(self):
        table = make_table()
        table.map(0xABC, 9)  # indices 0 / 0 / 5 / 0xBC
        steps = table.walk_entries(0xABC)[0]
        assert [s.level for s in steps] == [0, 1, 2, 3]
        assert entry_addrs(steps) == [ROOT, PUD, PMD + 5 * 8,
                                      PTE + 0xBC * 8]

    def test_walk_addresses_fall_in_table_pages(self):
        table = make_table()
        table.map(0xABC, 9)
        steps = table.walk_entries(0xABC)[0]
        assert [s.table_base for s in steps] == [ROOT, PUD, PMD, PTE]
        for step in steps:
            assert step.table_base <= step.entry_addr < step.table_base + 4096

    def test_walk_unmapped_faults(self):
        with pytest.raises(TranslationFault):
            make_table().walk_entries(1)

    def test_walk_entries_matches_walk(self):
        """The tree descent and the walker's store read agree, and both
        give the hand-computed addresses."""
        table = make_table()
        installed = table.map(0x55, 3)
        steps, entry = table.walk_entries(0x55)
        expected = (ROOT, PUD, PMD, PTE + 0x55 * 8)
        assert tuple(entry_addrs(steps)) == expected
        assert entry is installed
        assert entry.frame == 3
        walker = PageTableWalker(table, cache_entries=0)
        assert walker.walk(0x55) == (3, expected)

    def test_shared_prefix_shares_table_pages(self):
        table = make_table()
        table.map(0, 1)
        table.map(1, 2)
        a = table.walk_entries(0)[0]
        b = table.walk_entries(1)[0]
        # Same interior tables, different PTE slot.
        assert a[2].table_base == b[2].table_base == PMD
        assert (a[3].entry_addr, b[3].entry_addr) == (PTE, PTE + 8)


class TestWalker:
    def test_cold_walk_costs_four_accesses(self):
        table = make_table()
        table.map(0x777, 5)
        walker = PageTableWalker(table, cache_entries=32)
        frame, addrs = walker.walk(0x777)
        assert len(addrs) == 4
        assert frame == 5

    def test_warm_walk_skips_interior_levels(self):
        table = make_table()
        table.map(0x700, 5)
        table.map(0x701, 6)
        walker = PageTableWalker(table, cache_entries=32)
        walker.walk(0x700)
        _frame, addrs = walker.walk(0x701)  # same PMD: only the PTE
        assert addrs == (PTE + 0x101 * 8,)

    def test_no_cache_walker_always_walks_four(self):
        table = make_table()
        table.map(0x700, 5)
        walker = PageTableWalker(table, cache_entries=0)
        walker.walk(0x700)
        _frame, addrs = walker.walk(0x700)
        assert addrs == (ROOT, PUD, PMD + 3 * 8, PTE + 0x100 * 8)

    def test_invalidate_flushes(self):
        table = make_table()
        table.map(0x700, 5)
        walker = PageTableWalker(table, cache_entries=32)
        walker.walk(0x700)
        walker.invalidate()
        assert len(walker.walk(0x700)[1]) == 4

    def test_walks_set_accessed_bit(self):
        table = make_table()
        entry = table.map(0x700, 5)
        assert entry.accessed is False
        PageTableWalker(table, cache_entries=0).walk(0x700)
        assert entry.accessed is True

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1),
                    min_size=1, max_size=40, unique=True))
    @settings(max_examples=30)
    def test_walker_frame_matches_table(self, vpns):
        """Invariant: walk caches never change the translation result."""
        table = make_table()
        for index, vpn in enumerate(vpns):
            table.map(vpn, index + 100)
        walker = PageTableWalker(table, cache_entries=8)
        for _ in range(2):
            for index, vpn in enumerate(vpns):
                assert walker.walk(vpn)[0] == index + 100


class TestWalkStore:
    """The table's walk store, ``vpn -> (leaf, entry addresses)``,
    which :class:`PageTableWalker` reads in place of a tree descent."""

    @staticmethod
    def assert_store_matches_descent(table):
        assert table._walks.keys() == table._leaves.keys()
        for vpn, (entry, addrs) in table._walks.items():
            steps, leaf = table.walk_entries(vpn)
            assert addrs == tuple(entry_addrs(steps))
            assert entry is leaf

    def test_map_records_its_descent(self):
        table = make_table()
        installed = table.map(0xABC, 9)
        entry, addrs = table._walks[0xABC]
        assert entry is installed
        assert addrs == (ROOT, PUD, PMD + 5 * 8, PTE + 0xBC * 8)

    def test_map_allocates_interior_tables_root_to_leaf(self):
        draws = []
        frames = itertools.count()

        def allocate():
            draws.append(next(frames) * 4096)
            return draws[-1]

        table = FourLevelPageTable(allocate, name="t")
        vpn = (1 << 27) | (2 << 18) | (3 << 9) | 4
        table.map(vpn, 1)
        assert draws == [ROOT, PUD, PMD, PTE]
        assert table._walks[vpn][1] == (ROOT + 8, PUD + 16, PMD + 24,
                                        PTE + 32)
        table.map(vpn ^ (1 << 9), 2)  # new PMD slot: one new PTE table
        assert draws == [ROOT, PUD, PMD, PTE, 16384]
        assert table._walks[vpn ^ (1 << 9)][1] == (ROOT + 8, PUD + 16,
                                                   PMD + 16, 16384 + 32)

    def test_remap_replaces_entry_keeps_addresses(self):
        table = make_table()
        first = table.map(0x12345, 99)
        addrs = table._walks[0x12345][1]
        remapped = table.map(0x12345, 100)
        entry, kept = table._walks[0x12345]
        assert entry is remapped is not first
        assert kept == addrs
        assert PageTableWalker(table, cache_entries=0).walk(0x12345) == \
            (100, addrs)

    def test_unmap_drops_entry_and_walk_faults(self):
        table = make_table()
        table.map(9, 77)
        walker = PageTableWalker(table, cache_entries=32)
        assert walker.walk(9)[0] == 77
        assert table.unmap(9)
        assert 9 not in table._walks
        with pytest.raises(TranslationFault):
            walker.walk(9)

    def test_never_mapped_vpn_faults_in_walker(self):
        table = make_table()
        table.map(0x700, 5)
        walker = PageTableWalker(table, cache_entries=32)
        # Shares every interior table with 0x700, or none of them.
        for vpn in (0x701, 1 << 30):
            with pytest.raises(TranslationFault) as caught:
                walker.walk(vpn)
            assert not isinstance(caught.value, (KeyError, TypeError))
        assert walker.walks == 2

    def test_remap_after_unmap_reuses_interior_tables(self):
        table = make_table()
        table.map(0x700, 5)
        addrs = table._walks[0x700][1]
        table.unmap(0x700)
        assert not table.unmap(0x700)
        pages = table.table_pages
        again = table.map(0x700, 6)
        assert table.table_pages == pages
        assert table._walks[0x700] == (again, addrs)

    def test_matches_descent_over_seeded_ops(self):
        rng = random.Random(16)
        table = make_table()
        walker = PageTableWalker(table, cache_entries=7)
        mapped = set()
        for op in range(600):
            vpn = rng.choice((rng.randrange(1 << 12),
                              rng.randrange(1 << 36)))
            roll = rng.random()
            if roll < 0.6:
                table.map(vpn, op)  # a map, or a remap when present
                mapped.add(vpn)
            elif mapped and roll < 0.8:
                victim = rng.choice(sorted(mapped))
                assert table.unmap(victim)
                mapped.discard(victim)
                with pytest.raises(TranslationFault):
                    walker.walk(victim)
            elif mapped:
                vpn = rng.choice(sorted(mapped))
                frame, addrs = walker.walk(vpn)
                steps, leaf = table.walk_entries(vpn)
                assert frame == leaf.frame
                assert addrs == tuple(entry_addrs(steps))[-len(addrs):]
            if op % 50 == 49:
                self.assert_store_matches_descent(table)
        assert table._walks.keys() == mapped
        self.assert_store_matches_descent(table)

    def test_store_is_exact_and_uncapped(self):
        # Over 64 Ki mapped VPNs: the store keeps every one.
        table = make_table()
        count = (1 << 16) + 8
        for vpn in range(count):
            table.map(vpn, vpn + 1)
        assert len(table._walks) == count
        for vpn in (0, 1, 511, 512, count - 1):
            entry, addrs = table._walks[vpn]
            steps, leaf = table.walk_entries(vpn)
            assert entry is leaf
            assert addrs == tuple(entry_addrs(steps))
