"""Tests for access-control metadata: entries, layout, bitmaps, store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.acm.bitmap import SharedPageBitmap
from repro.acm.layout import FamLayout
from repro.acm.metadata import (
    AcmEntry,
    PERM_RO,
    PERM_RW,
    PERM_RWX,
    PERM_RX,
    Permission,
    max_nodes,
    perm_code_allows,
    shared_owner_marker,
)
from repro.acm.store import AcmStore
from repro.config.system import GIB
from repro.errors import AccessViolationError, ConfigError


class TestPermissionCodes:
    def test_ro_denies_write(self):
        assert perm_code_allows(PERM_RO, Permission.READ)
        assert not perm_code_allows(PERM_RO, Permission.WRITE)

    def test_rw_grants_read_write(self):
        assert perm_code_allows(PERM_RW, Permission.READ | Permission.WRITE)
        assert not perm_code_allows(PERM_RW, Permission.EXEC)

    def test_rx_grants_exec(self):
        assert perm_code_allows(PERM_RX, Permission.EXEC)
        assert not perm_code_allows(PERM_RX, Permission.WRITE)

    def test_rwx_grants_everything(self):
        needed = Permission.READ | Permission.WRITE | Permission.EXEC
        assert perm_code_allows(PERM_RWX, needed)


class TestAcmEntry:
    def test_encode_decode_roundtrip_16(self):
        entry = AcmEntry(owner=1234, perm_code=PERM_RW)
        assert AcmEntry.decode(entry.encode(16), 16) == entry

    @given(st.integers(min_value=0, max_value=(1 << 14) - 1),
           st.integers(min_value=0, max_value=3))
    def test_roundtrip_property_16(self, owner, perm):
        entry = AcmEntry(owner=owner, perm_code=perm)
        assert AcmEntry.decode(entry.encode(16), 16) == entry

    @given(st.integers(min_value=0, max_value=(1 << 6) - 1),
           st.integers(min_value=0, max_value=3))
    def test_roundtrip_property_8(self, owner, perm):
        entry = AcmEntry(owner=owner, perm_code=perm)
        assert AcmEntry.decode(entry.encode(8), 8) == entry

    def test_paper_shared_marker_is_16383_nodes(self):
        """16-bit ACM: 14 owner bits; marker 0x3FFF; 16383 real ids."""
        assert shared_owner_marker(16) == 0x3FFF
        assert max_nodes(16) == 16383

    def test_owner_overflow_rejected(self):
        with pytest.raises(ConfigError):
            AcmEntry(owner=1 << 14, perm_code=0).encode(16)

    def test_is_shared(self):
        shared = AcmEntry(owner=shared_owner_marker(16))
        assert shared.is_shared(16)
        assert not AcmEntry(owner=5).is_shared(16)

    def test_allows_owner_only(self):
        entry = AcmEntry(owner=7, perm_code=PERM_RW)
        assert entry.allows(7, Permission.WRITE, 16)
        assert not entry.allows(8, Permission.READ, 16)

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigError):
            shared_owner_marker(12)


class TestFamLayout:
    def test_paper_geometry_16gb(self):
        layout = FamLayout(16 * GIB, acm_bits=16)
        # 64B block covers 32 pages of 16-bit entries (Figure 5).
        assert layout.pages_per_block == 32
        # Metadata: 2 bytes per 4KB page = capacity / 2048.
        assert layout.metadata_bytes == 16 * GIB // 2048
        # Bitmaps: 8KB per 1GB region.
        assert layout.bitmap_bytes == 16 * 8 * 1024
        assert layout.metadata_base + layout.metadata_bytes + \
            layout.bitmap_bytes == 16 * GIB

    def test_overhead_is_small(self):
        layout = FamLayout(16 * GIB, acm_bits=16)
        assert layout.overhead_fraction < 0.001

    def test_acm_block_addr_derivation(self):
        """MTAdd + page/32 * 64 for 16-bit entries (Section III-A)."""
        layout = FamLayout(16 * GIB, acm_bits=16)
        addr = 4096 * 33  # page 33 -> block 1
        expected = layout.metadata_base + (33 // 32) * 64
        assert layout.acm_block_addr(addr) == expected

    def test_pages_per_block_by_width(self):
        assert FamLayout(16 * GIB, acm_bits=8).pages_per_block == 64
        assert FamLayout(16 * GIB, acm_bits=32).pages_per_block == 16

    def test_rejects_metadata_addresses(self):
        layout = FamLayout(16 * GIB)
        with pytest.raises(ConfigError):
            layout.page_number(layout.metadata_base)

    def test_bitmap_block_addr_within_region_bitmap(self):
        layout = FamLayout(16 * GIB)
        addr = layout.bitmap_block_addr(5 * GIB, node_id=100)
        region_base = layout.bitmap_base + 5 * 8 * 1024
        assert region_base <= addr < region_base + 8 * 1024

    @given(st.integers(min_value=0, max_value=(16 * GIB // 4096) - 10**6),
           st.integers(min_value=0, max_value=16382))
    @settings(max_examples=50)
    def test_derivation_total(self, page, node):
        """ACM addresses always land inside the metadata region and
        bitmap addresses inside the bitmap region."""
        layout = FamLayout(16 * GIB)
        fam_addr = page * 4096
        if fam_addr >= layout.metadata_base:
            return
        assert layout.metadata_base <= layout.acm_block_addr(fam_addr) \
            < layout.bitmap_base
        assert layout.bitmap_base <= \
            layout.bitmap_block_addr(fam_addr, node) < layout.capacity_bytes


class TestSharedPageBitmap:
    def test_grant_and_check(self):
        bitmap = SharedPageBitmap(region=0)
        bitmap.grant(5, PERM_RW)
        assert bitmap.allows(5, Permission.WRITE)
        assert not bitmap.allows(6, Permission.READ)

    def test_mixed_permissions(self):
        """The paper's mixed sharing: some nodes RW, others RO."""
        bitmap = SharedPageBitmap(region=0)
        bitmap.grant(1, PERM_RW)
        bitmap.grant(2, PERM_RO)
        assert bitmap.allows(1, Permission.WRITE)
        assert bitmap.allows(2, Permission.READ)
        assert not bitmap.allows(2, Permission.WRITE)

    def test_revoke(self):
        bitmap = SharedPageBitmap(region=0)
        bitmap.grant(1, PERM_RW)
        assert bitmap.revoke(1) is True
        assert bitmap.revoke(1) is False
        assert not bitmap.allows(1, Permission.READ)

    def test_nodes(self):
        bitmap = SharedPageBitmap(region=0)
        bitmap.grant(1, 0)
        bitmap.grant(9, 1)
        assert bitmap.nodes() == frozenset({1, 9})

    def test_rejects_marker_node_id(self):
        bitmap = SharedPageBitmap(region=0)
        with pytest.raises(ConfigError):
            bitmap.grant((1 << 14) - 1, 0)


class TestAcmStore:
    def make_store(self):
        return AcmStore(FamLayout(2 * GIB))

    def test_owner_check(self):
        store = self.make_store()
        store.set_owner(10, node_id=3, perm_code=PERM_RW)
        allowed, bitmap = store.check(3, 10 * 4096, Permission.WRITE)
        assert allowed and not bitmap

    def test_foreign_node_denied(self):
        store = self.make_store()
        store.set_owner(10, node_id=3, perm_code=PERM_RW)
        allowed, _bitmap = store.check(4, 10 * 4096, Permission.READ)
        assert not allowed

    def test_unallocated_page_denied(self):
        store = self.make_store()
        allowed, _bitmap = store.check(3, 10 * 4096, Permission.READ)
        assert not allowed

    def test_verify_raises(self):
        store = self.make_store()
        store.set_owner(10, node_id=3, perm_code=PERM_RO)
        with pytest.raises(AccessViolationError) as exc:
            store.verify(3, 10 * 4096, Permission.WRITE)
        assert exc.value.node_id == 3

    def test_shared_page_uses_bitmap(self):
        store = self.make_store()
        store.mark_shared(10)
        store.bitmap_for_region(0).grant(7, PERM_RW)
        allowed, consulted = store.check(7, 10 * 4096, Permission.WRITE)
        assert allowed and consulted
        allowed, consulted = store.check(8, 10 * 4096, Permission.READ)
        assert not allowed and consulted

    def test_clear(self):
        store = self.make_store()
        store.set_owner(10, node_id=3, perm_code=PERM_RW)
        store.clear(10)
        allowed, _ = store.check(3, 10 * 4096, Permission.READ)
        assert not allowed
