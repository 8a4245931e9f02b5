"""The fused FAM access chain against its composed seed bodies.

``NvmDevice.access``, ``DramDevice.access``, ``AcmStore.check`` and
``PageTableWalker.walk`` inline the primitives they compose, and the
page table answers ``lookup``, ``in`` and walks from one walk store.
A first touch (``Node._handle_page_fault``), the allocator's random
draw, the walk-cache fills and the hierarchy's dirty-victim absorption
are straight-line code too.  The catalog equivalence suite covers
what the benchmark workloads reach; this file covers the branches
they never take (a full FAM window, odd bank counts, metadata-region
addresses, shared pages, remaps between walks, exhausted local frames
and frame pools, walk-cache evictions, victims absent from the next
level) by running each fused leaf next to its composition in
:mod:`repro.core.refpath`, or the seed body it replaced, on twin
state.
"""

import itertools
import random

import pytest

from repro.acm.layout import FamLayout
from repro.acm.metadata import PERM_RO, PERM_RW, PERM_RWX, PERM_RX, Permission
from repro.acm.store import AcmStore
from repro.broker.allocator import FrameAllocator
from repro.broker.broker import MemoryBroker
from repro.cache.hierarchy import CacheHierarchy
from repro.config.presets import small_config, with_nodes
from repro.config.system import (
    GIB,
    KIB,
    AllocationConfig,
    CacheConfig,
    FamConfig,
    LocalMemoryConfig,
)
from repro.core import refpath
from repro.core.refpath import (
    _ref_acm_check,
    _ref_dram_access,
    _ref_fam_access,
    _ref_hier_access,
    _ref_nvm_access,
    _ref_page_fault,
    _ref_walker_walk,
)
from repro.core.system import FamSystem
from repro.errors import AccessViolationError, AllocationError, ConfigError
from repro.mem.device import DramDevice, NvmDevice
from repro.mem.request import RequestKind
from repro.pagetable.walker import PageTableWalker
from repro.pagetable.x86 import FourLevelPageTable

PAGE = 4096
KINDS = tuple(RequestKind)
PERMISSIONS = tuple(Permission(mask) for mask in range(1, 8))


# ----------------------------------------------------------------------
# Memory devices
# ----------------------------------------------------------------------
def _bank_state(device):
    return [(bank.busy_until, bank.reservations)
            for bank in device.banks._banks]


def _nvm_state(fam):
    window = fam.window
    return (fam.reads, fam.writes, fam.at_accesses, dict(fam.kind_counts),
            dict(fam.node_counts), sorted(window._completions),
            window.stall_time, _bank_state(fam))


def _requests(seed, count, burst):
    """``count`` FAM requests arriving ``burst`` at a time on a slow
    clock, so a small outstanding window fills."""
    rng = random.Random(seed)
    now = 0.0
    for index in range(count):
        if index % burst == 0:
            now += rng.choice((0.0, 5.0, 40.0, 400.0))
        yield (rng.randrange(1 << 24) * 64, now, rng.random() < 0.3,
               rng.choice(KINDS), rng.choice((None, 0, 1, 5)))


def _run_nvm_twins(config, requests):
    fused, composed = NvmDevice(config), NvmDevice(config)
    for addr, now, is_write, kind, node_id in requests:
        got = fused.access(addr, now, is_write, kind, node_id)
        want = _ref_nvm_access(composed, addr, now, is_write, kind, node_id)
        assert got == want
    return fused, composed


class TestNvmDevice:
    def test_full_window_matches_composed_primitives(self):
        config = FamConfig(capacity_bytes=GIB, max_outstanding=4)
        fused, composed = _run_nvm_twins(config, _requests(1, 600, 9))
        assert _nvm_state(fused) == _nvm_state(composed)
        # The full-window branch really ran: requests waited.
        assert fused.window.stall_time > 0.0
        assert sum(reservations for _busy, reservations
                   in _bank_state(fused)) == 600

    def test_non_power_of_two_banks(self):
        config = FamConfig(capacity_bytes=GIB, banks=3, max_outstanding=8)
        fused, composed = _run_nvm_twins(config, _requests(2, 400, 5))
        assert _nvm_state(fused) == _nvm_state(composed)
        assert all(bank.reservations for bank in fused.banks._banks)


class TestDramDevice:
    @pytest.mark.parametrize("banks", [8, 5])
    def test_matches_composed_primitives(self, banks):
        config = LocalMemoryConfig(banks=banks)
        fused, composed = DramDevice(config), DramDevice(config)
        for addr, now, _write, _kind, _node in _requests(banks, 400, 4):
            assert (fused.access(addr, now)
                    == _ref_dram_access(composed, addr, now))
        assert _bank_state(fused) == _bank_state(composed)


# ----------------------------------------------------------------------
# ACM decision
# ----------------------------------------------------------------------
def _populated_broker():
    """A broker with owned pages of every permission class, a shared
    segment with mixed grants, and a released page."""
    broker = MemoryBroker(FamConfig(capacity_bytes=GIB),
                          AllocationConfig(), acm_bits=16)
    for node_id in range(3):
        broker.register_node(node_id)
    owned = [broker.allocate_for_node(0, 0x100 + code, perm_code=code)
             for code in (PERM_RO, PERM_RW, PERM_RX, PERM_RWX)]
    owned.append(broker.allocate_for_node(1, 0x200))
    released = broker.allocate_for_node(1, 0x201)
    broker.release_page(1, 0x201)
    segment = broker.create_shared_segment({0: PERM_RW, 1: PERM_RO},
                                           n_pages=2)
    return broker, owned, released, segment


class TestAcmCheck:
    def test_matches_composed_check_everywhere(self):
        broker, owned, released, segment = _populated_broker()
        pages = owned + [released, 12345] + list(segment.fam_pages)
        for fam_page, node_id, needed in itertools.product(
                pages, range(3), PERMISSIONS):
            addr = fam_page * PAGE + 0x88
            assert (broker.acm.check(node_id, addr, needed)
                    == _ref_acm_check(broker.acm, node_id, addr, needed))

    def test_shared_page_consults_bitmap(self):
        broker, _owned, _released, segment = _populated_broker()
        addr = segment.fam_pages[0] * PAGE
        check = broker.acm.check
        assert check(0, addr, Permission.WRITE) == (True, True)
        assert check(1, addr, Permission.READ) == (True, True)
        assert check(1, addr, Permission.WRITE) == (False, True)
        assert check(2, addr, Permission.READ) == (False, True)

    @pytest.mark.parametrize("where", ["metadata", "bitmap", "end",
                                       "negative"])
    def test_non_usable_address_raises(self, where):
        layout = FamLayout(GIB)
        addr = {"metadata": layout.metadata_base,
                "bitmap": layout.bitmap_base,
                "end": layout.capacity_bytes - 1,
                "negative": -PAGE}[where]
        store = AcmStore(layout)
        with pytest.raises(ConfigError):
            store.check(0, addr, Permission.READ)
        with pytest.raises(ConfigError):
            _ref_acm_check(store, 0, addr, Permission.READ)

    def test_stu_verify_rejects_metadata_address(self):
        system = FamSystem(small_config(), "deact-n", seed=7)
        stu = system.nodes[0].stu
        layout = system.broker.layout
        misses = stu.stats.get("acm.misses")
        with pytest.raises(ConfigError):
            stu.verify_access_fast(layout.metadata_base, 0.0)
        with pytest.raises(ConfigError):
            stu.verify_access_fast(layout.bitmap_base + 64, 0.0)
        # Rejected before the ACM cache or the FAM is touched.
        assert stu.stats.get("acm.misses") == misses
        assert system.fam.accesses == 0


# ----------------------------------------------------------------------
# Denied DeACT reads
# ----------------------------------------------------------------------
class TestDeniedReadsLeaveNoMapping:
    @pytest.mark.parametrize("arch", ["deact-w", "deact-n"])
    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_denied_reads_register_nothing(self, arch, path):
        """A node whose translator still holds a released page is
        denied on every read, and no denied read issues its data
        request to the FAM."""
        system = FamSystem(with_nodes(small_config(), 2), arch, seed=7)
        node = system.nodes[0]
        node_page = node.fam_zone_base // PAGE + 3
        fam_page = system.broker.allocate_for_node(0, node_page)
        node.fam_translator.install(node_page, fam_page, now=0.0)
        system.broker.release_page(0, node_page)
        access = (node.architecture.fam_access_fast if path == "fast"
                  else _ref_fam_access)
        now = 0.0
        for _ in range(200):
            with pytest.raises(AccessViolationError):
                access(node, node_page * PAGE + 64, now, False,
                       RequestKind.DATA)
            now += 1000.0
        assert system.fam.kind_counts[RequestKind.DATA] == 0
        assert node.stu.stats.get("violations") == 200


# ----------------------------------------------------------------------
# Page-table walker
# ----------------------------------------------------------------------
def _table():
    frames = itertools.count(1)
    return FourLevelPageTable(lambda: next(frames) * PAGE)


def _walker_state(walker):
    return (walker.cache_probes,
            [(cache.hits, cache.misses,
              [list(lines.items()) for lines in cache._sets])
             for cache in walker._caches])


def _ref_outcome(walker, vpn):
    """``_ref_walker_walk`` in the production walker's shape."""
    want = _ref_walker_walk(walker, vpn)
    return want.frame, tuple(step.entry_addr for step in want.steps)


class TestWalker:
    @pytest.mark.parametrize("cache_entries", [0, 32, 7])
    @pytest.mark.parametrize("remap_every", [None, 6])
    def test_matches_composed_walk(self, cache_entries, remap_every):
        rng = random.Random(cache_entries * 31 + (remap_every or 0))
        vpns = sorted({rng.randrange(1 << 30) for _ in range(24)} |
                      {0x700 + i for i in range(8)})
        fused_table, composed_table = _table(), _table()
        for vpn in vpns:
            fused_table.map(vpn, vpn ^ 0x5A5)
            composed_table.map(vpn, vpn ^ 0x5A5)
        fused = PageTableWalker(fused_table, cache_entries=cache_entries)
        composed = PageTableWalker(composed_table,
                                   cache_entries=cache_entries)
        for step in range(400):
            vpn = rng.choice(vpns)
            assert fused.walk(vpn) == _ref_outcome(composed, vpn)
            if remap_every and step % remap_every == remap_every - 1:
                # Remap a page (fresh frame), or unmap one and map a new
                # VPN that may need new interior tables.
                victim = rng.choice(vpns)
                if step // remap_every % 2:
                    frame = rng.randrange(1 << 20)
                    fused_table.map(victim, frame)
                    composed_table.map(victim, frame)
                else:
                    assert fused_table.unmap(victim)
                    assert composed_table.unmap(victim)
                    vpns.remove(victim)
                    fresh = rng.randrange(1 << 30)
                    if fresh not in vpns:
                        vpns.append(fresh)
                    fused_table.map(fresh, fresh & 0xFFFF)
                    composed_table.map(fresh, fresh & 0xFFFF)
            if step % 97 == 96:
                fused.invalidate()
                composed.invalidate()
        assert _walker_state(fused) == _walker_state(composed)
        assert fused.cache_probes == composed.cache_probes
        if cache_entries:
            assert fused.cache_probes > 0
        assert fused_table._walks == composed_table._walks

    def test_returned_addrs_are_read_only(self):
        table, twin = _table(), _table()
        table.map(0x777, 5)
        twin.map(0x777, 5)
        walker = PageTableWalker(table, cache_entries=0)
        composed = PageTableWalker(twin, cache_entries=0)
        frame, addrs = walker.walk(0x777)
        assert type(addrs) is tuple and len(addrs) == 4
        assert (frame, addrs) == _ref_outcome(composed, 0x777)
        with pytest.raises(TypeError):
            addrs[0] = 0
        assert walker.walk(0x777) == (frame, addrs)


# ----------------------------------------------------------------------
# Page-table walk store: the one store every reader probes
# ----------------------------------------------------------------------
def _assert_store_matches_tree(table, also_absent=()):
    """The one-store invariant: the walk store's keys are the tree's
    leaves, each with the frame its leaf slot holds and the entry
    addresses the tree's descent reads, and ``lookup``, ``in`` and
    ``mapped_pages`` answer from it."""
    tree = dict(table.iter_mappings())
    assert table._walks.keys() == tree.keys()
    for vpn, frame in tree.items():
        stored, addrs = table._walks[vpn]
        steps, descended = table.walk_entries(vpn)
        assert stored == descended == frame
        assert addrs == tuple(step.entry_addr for step in steps)
        assert table.lookup(vpn) == frame
        assert vpn in table
    assert table.mapped_pages == len(tree)
    for vpn in also_absent:
        assert vpn not in table
        assert table.lookup(vpn) is None


class TestLeafIndex:
    """``lookup`` and ``in`` read the walk store, which stays equal to
    the tree's leaves through maps, remaps, unmaps, releases and
    migrations."""

    def test_map_remap_unmap(self):
        table = _table()
        vpns = [0x0, 0x1, 0x1FF, 0x200, 0x12345, (1 << 36) - 1]
        for vpn in vpns:
            table.map(vpn, vpn + 1)
        _assert_store_matches_tree(table, also_absent=(0x2, 0x12346))
        table.map(0x1FF, 77)
        assert table.lookup(0x1FF) == 77
        _assert_store_matches_tree(table)
        assert table.unmap(0x200)
        assert not table.unmap(0x200)
        assert not table.unmap(0x7654321)
        _assert_store_matches_tree(table, also_absent=(0x200,))

    def test_broker_release_and_migration(self):
        broker, _owned, _released, segment = _populated_broker()
        broker.map_shared_into_node(0, 0x900, segment)
        broker.release_page(0, 0x101)
        for node_id in range(3):
            _assert_store_matches_tree(broker.system_table(node_id))
        assert 0x101 not in broker.system_table(0)
        broker.migrate_node_pages(0, 2)
        for node_id in range(3):
            _assert_store_matches_tree(broker.system_table(node_id))
        # Owned pages moved; the shared mapping stayed with node 0.
        assert sorted(broker.system_table(0)._walks) == [0x900, 0x901]
        assert 0x100 in broker.system_table(2)
        assert broker.translate(2, 0x100) == \
            broker.system_table(2).lookup(0x100)


class TestWalkStoreAfterMigration:
    def test_source_and_destination_stores_match_descents(self):
        broker, _owned, _released, segment = _populated_broker()
        broker.map_shared_into_node(0, 0x900, segment)
        for node_id in range(3):
            _assert_store_matches_tree(broker.system_table(node_id))
        before = dict(broker.system_table(0)._walks)
        report = broker.migrate_node_pages(0, 2)
        assert report.pages_moved == 4
        src, dst = broker.system_table(0), broker.system_table(2)
        _assert_store_matches_tree(src)
        _assert_store_matches_tree(dst)
        # Moved pages now resolve through the destination's own tree;
        # the shared mapping kept its source frame and addresses.
        for vpn in range(0x100, 0x104):
            assert vpn not in src._walks
            assert dst._walks[vpn][0] == before[vpn][0]
            assert dst._walks[vpn][1] != before[vpn][1]
        assert src._walks[0x900] == before[0x900]
        walker = PageTableWalker(dst, cache_entries=0)
        assert walker.walk(0x100)[0] == before[0x100][0]


class TestWalkCacheEvictions:
    @pytest.mark.parametrize("cache_entries", [3, 6])
    def test_in_place_fills_match_composed_walk(self, cache_entries):
        """One- and two-entry walk caches over pages spread across PGD,
        PUD and PMD regions: nearly every fill evicts, and every walk
        and the final stores match the composed walk's."""
        rng = random.Random(cache_entries)
        vpns = [(pgd << 27) | (pud << 18) | (pmd << 9) | pte
                for pgd in (0, 1) for pud in (0, 3) for pmd in (0, 5, 9)
                for pte in (0, 7)]
        fused_table, composed_table = _table(), _table()
        for vpn in vpns:
            fused_table.map(vpn, vpn & 0xFFF)
            composed_table.map(vpn, vpn & 0xFFF)
        fused = PageTableWalker(fused_table, cache_entries=cache_entries)
        composed = PageTableWalker(composed_table,
                                   cache_entries=cache_entries)
        for _ in range(300):
            vpn = rng.choice(vpns)
            assert fused.walk(vpn) == _ref_outcome(composed, vpn)
        assert _walker_state(fused) == _walker_state(composed)
        # The PMD level has more keys than ways: cached keys were
        # evicted and missed again.
        pmd_cache = fused._caches[2]
        keys = {vpn >> 9 for vpn in vpns}
        assert len(keys) > pmd_cache.n_sets * pmd_cache.associativity
        assert pmd_cache.misses > len(keys)


# ----------------------------------------------------------------------
# Frame allocator
# ----------------------------------------------------------------------
def _seed_allocate(allocator):
    """The seed ``FrameAllocator.allocate``: a recycled frame, else the
    random policy's ``randrange`` draw, else ``_draw_fresh`` (the
    contiguous policy, or an exhausted pool)."""
    if allocator._recycled:
        index = allocator._recycled.pop()
    elif allocator._randbelow is None or allocator._remaining <= 0:
        index = allocator._draw_fresh()
    else:
        slot = allocator._rng.randrange(allocator._remaining)
        index = allocator._swaps.pop(slot, slot)
        last = allocator._remaining - 1
        if slot != last:
            allocator._swaps[slot] = allocator._swaps.pop(last, last)
        allocator._remaining -= 1
    allocator._allocated.add(index)
    return allocator.frame_address(index)


def _allocator_state(allocator):
    return (allocator._remaining, dict(allocator._swaps),
            list(allocator._recycled), sorted(allocator._allocated),
            allocator._rng.getstate())


class TestAllocatorDraw:
    @pytest.mark.parametrize("policy", ["random", "contiguous"])
    def test_draws_match_seed_until_exhausted(self, policy):
        """Allocations with frees in between (recycled frames), then
        allocations until the pool runs out on both twins."""
        n_frames = 40
        fused, composed = (FrameAllocator(PAGE * 8, n_frames, PAGE,
                                          policy=policy, seed=11)
                           for _ in range(2))
        rng = random.Random(5)
        live = []
        for step in range(60):
            if live and step % 3 == 2:
                frame = live.pop(rng.randrange(len(live)))
                fused.free(frame)
                composed.free(frame)
            else:
                frame = fused.allocate()
                assert frame == _seed_allocate(composed)
                live.append(frame)
            assert _allocator_state(fused) == _allocator_state(composed)
        assert fused._recycled or fused._remaining < n_frames - len(live)
        while len(fused):
            assert fused.allocate() == _seed_allocate(composed)
        assert _allocator_state(fused) == _allocator_state(composed)
        assert fused._remaining == 0
        with pytest.raises(AllocationError):
            fused.allocate()
        with pytest.raises(AllocationError):
            _seed_allocate(composed)
        assert _allocator_state(fused) == _allocator_state(composed)

    def test_random_draw_is_randrange(self):
        """The in-line draw consumes the generator exactly as
        ``randrange`` over the remaining slots does."""
        allocator = FrameAllocator(0, 1 << 20, PAGE, seed=3)
        twin = random.Random(3)
        for drawn in range(50):
            allocator.allocate()
            twin.randrange((1 << 20) - drawn)
        assert allocator._rng.getstate() == twin.getstate()


# ----------------------------------------------------------------------
# First touch
# ----------------------------------------------------------------------
#: Pages spread over PGD / PUD / PMD regions, so first touches also
#: allocate interior page-table frames.
FIRST_TOUCH_VPNS = [(pgd << 27) | (pud << 18) | (pmd << 9) | pte
                    for pgd in (0, 2) for pud in (0, 1, 6) for pmd in (0, 4)
                    for pte in (0, 1, 300)]


def _first_touch_config(local_pages):
    """``small_config`` with ``local_pages`` usable local frames (on top
    of the translation cache's reserved region) and a placement split
    that prefers local frames, so they run out."""
    config = small_config()
    reserved = config.translation_cache.size_bytes
    return config.replace(
        local_memory=LocalMemoryConfig(size_bytes=reserved
                                       + local_pages * PAGE),
        allocation=AllocationConfig(local_fraction=0.7))


def _first_touch_state(system):
    node, broker = system.nodes[0], system.broker
    allocator = broker.fam_allocator
    table, system_table = node.page_table, broker.system_table(0)
    _assert_store_matches_tree(table)
    _assert_store_matches_tree(system_table)
    return (node.stats.snapshot(), broker.stats.snapshot(),
            node._next_local_frame, node._local_frames_free,
            node._next_fam_zone_page, node._rng.getstate(),
            dict(table._walks), dict(system_table._walks),
            {page: (entry.owner, entry.perm_code)
             for page, entry in broker.acm._entries.items()},
            _allocator_state(allocator))


class TestFirstTouch:
    @pytest.mark.parametrize("arch", ["e-fam", "i-fam", "deact-n"])
    def test_matches_seed_page_fault(self, arch):
        config = _first_touch_config(local_pages=6)
        fused, composed = (FamSystem(config, arch, seed=9)
                           for _ in range(2))
        node = fused.nodes[0]
        for vpn in FIRST_TOUCH_VPNS:
            node._handle_page_fault(vpn)
            # The first touch defers its grants; the replay issues
            # them, in order, before the event's first request.
            for node_page in node._grants_due:
                node._grant(node.node_id, node_page)
            node._grants_due.clear()
            _ref_page_fault(composed.nodes[0], vpn)
            assert _first_touch_state(fused) == _first_touch_state(composed)
        counters = node.stats.snapshot()
        # Local frames ran out, FAM-zone frames were granted, and the
        # maps built interior tables (more frames than first touches).
        assert node._local_frames_free == 0
        assert counters["frames.local"] == node._next_local_frame
        assert counters["frames.fam"] > 0
        assert (counters["frames.local"] + counters["frames.fam"]
                > counters["page_faults"] == len(FIRST_TOUCH_VPNS))
        assert fused.broker.stats.get("pages_granted") \
            == counters["frames.fam"]

    def test_deact_never_places_in_translation_cache_region(self):
        config = _first_touch_config(local_pages=6)
        system = FamSystem(config, "deact-w", seed=4)
        node = system.nodes[0]
        for vpn in FIRST_TOUCH_VPNS:
            node._handle_page_fault(vpn)
        local_end = node.fam_translator.region_base // PAGE
        zone_start = node.fam_zone_base // PAGE
        assert local_end == 6
        pages = {frame for frame, _addrs in node.page_table._walks.values()}
        pages |= {addr // PAGE for _frame, addrs
                  in node.page_table._walks.values() for addr in addrs}
        assert all(page < local_end or page >= zone_start for page in pages)
        assert any(page < local_end for page in pages)


# ----------------------------------------------------------------------
# Dirty-victim absorption
# ----------------------------------------------------------------------
def _hierarchy_state(hierarchy):
    return [(cache.hits, cache.misses,
             [list(lines.items()) for lines in cache._sets])
            for cache in hierarchy.levels]


def _absorption_hierarchy():
    """L1 with more sets than L2, so an L2 eviction can leave a dirty
    line in L1 that L2 no longer holds."""
    return CacheHierarchy(
        CacheConfig("L1", 256, associativity=1, latency_ns=1.0),
        CacheConfig("L2", 512, associativity=4, latency_ns=3.0),
        CacheConfig("L3", 2 * KIB, associativity=4, latency_ns=10.0),
    )


class TestDirtyVictimAbsorption:
    def test_matches_composed_hierarchy(self, monkeypatch):
        """Random writes and reads on twin hierarchies, with the
        reference twin's absorbed victims recorded by whether the next
        level already held them."""
        seen = set()
        ref_fill = refpath._ref_fill

        def recording_fill(cache, key, value):
            result = ref_fill(cache, key, value)
            if cache is not composed._l1 and key != block:
                # A fill of another block than the accessed one is an
                # absorbed victim (the refill fills only ``block``).
                seen.add((cache.name, result.hit))
            return result

        monkeypatch.setattr(refpath, "_ref_fill", recording_fill)
        fused, composed = _absorption_hierarchy(), _absorption_hierarchy()
        rng = random.Random(17)
        for _ in range(3000):
            block = rng.randrange(48)
            write = rng.random() < 0.4
            got = fused.access_fast(block, write)
            want = _ref_hier_access(composed, block * 64, write)
            assert got == (want.level, want.latency_ns, want.writebacks)
        assert _hierarchy_state(fused) == _hierarchy_state(composed)
        # L2 absorbed L1 victims it held and victims it did not; L3
        # absorbed L2 victims, which it always holds (L3 evictions
        # back-invalidate L2, so L2 stays a subset of L3).
        assert seen == {("node.L2", True), ("node.L2", False),
                        ("node.L3", True)}

    def test_absent_victim_is_installed_dirty(self):
        hierarchy = _absorption_hierarchy()
        l1, l2 = hierarchy._l1, hierarchy._l2
        hierarchy.access_fast(0, True)  # L1 set 0, L2 set 0
        for block in (2, 6, 10, 14):  # L2 set 0 only: evicts 0 from L2
            hierarchy.access_fast(block, False)
        assert 0 not in l2 and l1.probe(0) is True
        # A full miss in L1 set 0 displaces dirty 0 into L2's full set.
        assert hierarchy.access_fast(4, False)[0] == 0
        assert 0 not in l1 and l2.probe(0) is True
        assert list(l2._sets[0])[-1] == 0

    def test_resident_victim_turns_dirty_and_recent(self):
        hierarchy = _absorption_hierarchy()
        l1, l2 = hierarchy._l1, hierarchy._l2
        hierarchy.access_fast(0, False)
        hierarchy.access_fast(2, False)
        hierarchy.access_fast(0, True)  # dirty in L1 only
        assert l1.probe(0) is True and l2.probe(0) is False
        assert list(l2._sets[0]) == [0, 2]
        assert hierarchy.access_fast(4, False)[0] == 0
        assert l2.probe(0) is True
        assert list(l2._sets[0]) == [2, 4, 0]
