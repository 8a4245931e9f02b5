"""Tests for the memory broker and node registry."""

import pytest

from repro.acm.metadata import PERM_RO, PERM_RW, Permission, shared_owner_marker
from repro.broker.broker import MemoryBroker
from repro.broker.registry import NodeRegistry
from repro.config.system import AllocationConfig, FamConfig, GIB, PAGE_BYTES
from repro.errors import ConfigError, TranslationFault


def make_broker(policy="random"):
    fam = FamConfig(capacity_bytes=1 * GIB)
    allocation = AllocationConfig(fam_policy=policy, seed=5)
    return MemoryBroker(fam, allocation)


class TestRegistration:
    def test_register_creates_system_table(self):
        broker = make_broker()
        broker.register_node(0)
        assert broker.system_table(0) is not None

    def test_unknown_node_rejected(self):
        broker = make_broker()
        with pytest.raises(ConfigError):
            broker.system_table(3)

    def test_duplicate_registration_rejected(self):
        broker = make_broker()
        broker.register_node(0)
        with pytest.raises(ConfigError):
            broker.register_node(0)


class TestPageGrants:
    def test_allocate_installs_mapping_and_acm(self):
        broker = make_broker()
        broker.register_node(0)
        fam_page = broker.allocate_for_node(0, node_page=0x100)
        assert broker.translate(0, 0x100) == fam_page
        entry = broker.acm.entry_of(fam_page)
        assert entry.owner == 0

    def test_double_grant_rejected(self):
        broker = make_broker()
        broker.register_node(0)
        broker.allocate_for_node(0, 0x100)
        with pytest.raises(ConfigError):
            broker.allocate_for_node(0, 0x100)

    def test_ensure_mapped_is_idempotent(self):
        broker = make_broker()
        broker.register_node(0)
        first = broker.ensure_mapped(0, 0x100)
        second = broker.ensure_mapped(0, 0x100)
        assert first == second

    def test_translate_unmapped_faults(self):
        broker = make_broker()
        broker.register_node(0)
        with pytest.raises(TranslationFault):
            broker.translate(0, 0x999)

    def test_release_scrubs_everything(self):
        broker = make_broker()
        broker.register_node(0)
        fam_page = broker.allocate_for_node(0, 0x100)
        broker.release_page(0, 0x100)
        with pytest.raises(TranslationFault):
            broker.translate(0, 0x100)
        assert broker.acm.entry_of(fam_page) is None
        assert not broker.fam_allocator.is_allocated(fam_page * PAGE_BYTES)

    def test_isolation_between_nodes(self):
        """Pages granted to node 0 fail verification from node 1 —
        the threat-model invariant."""
        broker = make_broker()
        broker.register_node(0)
        broker.register_node(1)
        fam_page = broker.allocate_for_node(0, 0x100)
        allowed, _ = broker.acm.check(1, fam_page * PAGE_BYTES,
                                      Permission.READ)
        assert not allowed

    def test_random_policy_scatters_frames(self):
        broker = make_broker("random")
        broker.register_node(0)
        pages = [broker.allocate_for_node(0, n) for n in range(32)]
        deltas = [abs(b - a) for a, b in zip(pages, pages[1:])]
        assert max(deltas) > 1  # not physically contiguous


class TestSharedSegments:
    def test_segment_grants_and_marks_shared(self):
        broker = make_broker()
        broker.register_node(0)
        broker.register_node(1)
        segment = broker.create_shared_segment({0: PERM_RW, 1: PERM_RO},
                                               n_pages=4)
        marker = shared_owner_marker(broker.layout.acm_bits)
        for fam_page in segment.fam_pages:
            assert broker.acm.entry_of(fam_page).owner == marker
        addr = segment.fam_pages[0] * PAGE_BYTES
        assert broker.acm.check(0, addr, Permission.WRITE)[0]
        assert broker.acm.check(1, addr, Permission.READ)[0]
        assert not broker.acm.check(1, addr, Permission.WRITE)[0]

    def test_segment_pages_contiguous(self):
        broker = make_broker()
        broker.register_node(0)
        segment = broker.create_shared_segment({0: PERM_RW}, n_pages=8)
        pages = list(segment.fam_pages)
        assert pages == list(range(pages[0], pages[0] + 8))

    def test_map_shared_into_node(self):
        broker = make_broker()
        broker.register_node(0)
        broker.register_node(1)
        segment = broker.create_shared_segment({0: PERM_RW, 1: PERM_RO}, 2)
        broker.map_shared_into_node(1, 0x8000, segment)
        assert broker.translate(1, 0x8000) == segment.fam_pages[0]

    def test_non_grantee_cannot_map(self):
        broker = make_broker()
        broker.register_node(0)
        broker.register_node(1)
        segment = broker.create_shared_segment({0: PERM_RW}, 2)
        with pytest.raises(ConfigError):
            broker.map_shared_into_node(1, 0x8000, segment)

    def test_empty_grants_rejected(self):
        broker = make_broker()
        with pytest.raises(ConfigError):
            broker.create_shared_segment({}, 1)

    def test_unregistered_grantee_rejected(self):
        broker = make_broker()
        with pytest.raises(ConfigError):
            broker.create_shared_segment({9: PERM_RW}, 1)


class TestMigration:
    def test_pages_move_to_target_node(self):
        broker = make_broker()
        broker.register_node(0)
        broker.register_node(1)
        fam_page = broker.allocate_for_node(0, 0x100)
        report = broker.migrate_node_pages(0, 1)
        assert report.pages_moved == 1
        assert broker.translate(1, 0x100) == fam_page
        with pytest.raises(TranslationFault):
            broker.translate(0, 0x100)
        assert broker.acm.entry_of(fam_page).owner == 1

    def test_invalidation_callback_fires(self):
        broker = make_broker()
        broker.register_node(0)
        broker.register_node(1)
        broker.allocate_for_node(0, 0x100)
        broker.allocate_for_node(0, 0x101)
        invalidated = []
        broker.migrate_node_pages(0, 1,
                                  on_invalidate=lambda np, fp:
                                  invalidated.append(np))
        assert sorted(invalidated) == [0x100, 0x101]

    def test_shared_pages_stay_put(self):
        broker = make_broker()
        broker.register_node(0)
        broker.register_node(1)
        segment = broker.create_shared_segment({0: PERM_RW, 1: PERM_RW}, 2)
        broker.map_shared_into_node(0, 0x100, segment)
        report = broker.migrate_node_pages(0, 1)
        assert report.pages_moved == 0

    def test_report_counts_metadata_work(self):
        broker = make_broker()
        broker.register_node(0)
        broker.register_node(1)
        for page in range(3):
            broker.allocate_for_node(0, page)
        report = broker.migrate_node_pages(0, 1, on_invalidate=lambda *a: None)
        assert report.acm_writes == 3
        assert report.table_updates == 6
        assert report.translation_cache_invalidations == 3


class TestNodeRegistry:
    def test_capacity_from_acm_bits(self):
        assert NodeRegistry(16).capacity == 16383

    def test_node_id_limit(self):
        registry = NodeRegistry(16)
        with pytest.raises(ConfigError):
            registry.register_node(16383)

    def test_job_scheduling_and_migration(self):
        registry = NodeRegistry()
        registry.register_node(0)
        registry.register_node(1)
        record = registry.schedule_job("job-a", 0)
        assert registry.job("job-a").physical_node == 0
        registry.migrate_job("job-a", 1)
        assert registry.job("job-a").physical_node == 1
        assert record.migrations == 1

    def test_logical_ids_unique(self):
        registry = NodeRegistry()
        registry.register_node(0)
        a = registry.schedule_job("a", 0)
        b = registry.schedule_job("b", 0)
        assert a.logical_id != b.logical_id

    def test_duplicate_job_rejected(self):
        registry = NodeRegistry()
        registry.register_node(0)
        registry.schedule_job("a", 0)
        with pytest.raises(ConfigError):
            registry.schedule_job("a", 0)

    def test_migrate_unknown_job_rejected(self):
        registry = NodeRegistry()
        registry.register_node(0)
        with pytest.raises(ConfigError):
            registry.migrate_job("ghost", 0)
