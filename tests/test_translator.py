"""Tests for the FAM translator, translation cache and outstanding
mapping list."""

import pytest

from repro.config.system import LocalMemoryConfig, TranslationCacheConfig
from repro.errors import ProtocolError
from repro.mem.device import DramDevice
from repro.translator.fam_translator import FamTranslator
from repro.translator.outstanding import OutstandingMappingList
from repro.translator.translation_cache import TranslationCache


def small_tcache_config():
    # 1 KB: 64 entries of 16 B, 4-way -> 16 sets.
    return TranslationCacheConfig(size_bytes=1024)


class TestTranslationCache:
    def test_geometry(self):
        cache = TranslationCache(small_tcache_config())
        assert cache.config.n_entries == 64
        assert cache.n_sets == 16

    def test_paper_geometry_1mb(self):
        """1 MB, four 104-bit entries per 64 B row -> 65536 entries."""
        cache = TranslationCache(TranslationCacheConfig())
        assert cache.config.n_entries == 65536
        assert cache.config.associativity == 4

    def test_set_index_is_modulo(self):
        cache = TranslationCache(small_tcache_config())
        assert cache.set_index(17) == 17 % 16

    def test_row_offset_is_64_bytes_per_set(self):
        cache = TranslationCache(small_tcache_config())
        assert cache.row_offset_bytes(1) == 64
        assert cache.row_offset_bytes(16) == 0

    def test_lookup_install(self):
        cache = TranslationCache(small_tcache_config())
        assert cache.lookup(5) is None
        cache.install(5, 500)
        assert cache.lookup(5) == 500

    def test_hit_rate(self):
        cache = TranslationCache(small_tcache_config())
        cache.install(5, 500)
        cache.lookup(5)
        cache.lookup(6)
        assert cache.hit_rate == 0.5

    def test_random_replacement_within_row(self):
        cache = TranslationCache(small_tcache_config())
        # Five mappings in the same set (4-way): one gets evicted.
        keys = [16 * i for i in range(5)]
        for key in keys:
            cache.install(key, key)
        assert len(cache) == 64 or len(cache) <= 64
        resident = [k for k in keys if cache.probe_resident(k)] \
            if hasattr(cache, "probe_resident") else None
        # At most 4 of the 5 can be resident.
        hits = sum(1 for k in keys if cache.lookup(k) is not None)
        assert hits <= 4

    def test_invalidate(self):
        cache = TranslationCache(small_tcache_config())
        cache.install(5, 500)
        assert cache.invalidate(5)
        assert cache.lookup(5) is None


class TestOutstandingMappingList:
    def test_register_resolve(self):
        oml = OutstandingMappingList(capacity=4)
        oml.register(1, fam_addr=0xF000, node_addr=0xA000)
        assert oml.resolve(1) == (0xF000, 0xA000)
        assert len(oml) == 0

    def test_overflow_is_protocol_error(self):
        oml = OutstandingMappingList(capacity=1)
        oml.register(1, 0, 0)
        with pytest.raises(ProtocolError):
            oml.register(2, 0, 0)

    def test_duplicate_id_rejected(self):
        oml = OutstandingMappingList(capacity=4)
        oml.register(1, 0, 0)
        with pytest.raises(ProtocolError):
            oml.register(1, 0, 0)

    def test_unknown_response_rejected(self):
        oml = OutstandingMappingList(capacity=4)
        with pytest.raises(ProtocolError):
            oml.resolve(42)

    def test_peak_occupancy(self):
        oml = OutstandingMappingList(capacity=8)
        for i in range(5):
            oml.register(i, i, i)
        for i in range(5):
            oml.resolve(i)
        assert oml.peak_occupancy == 5
        assert oml.registered == 5

    def test_paper_capacity_default(self):
        assert OutstandingMappingList().capacity == 128


class TestFamTranslator:
    def make(self):
        dram = DramDevice(LocalMemoryConfig())
        translator = FamTranslator(small_tcache_config(), dram,
                                   region_base=0x3FF00000)
        return translator, dram

    def test_lookup_charges_one_dram_access(self):
        translator, dram = self.make()
        fam_page, completion = translator.lookup_fast(5, now=0.0)
        assert fam_page is None
        assert dram.accesses == 1
        assert completion >= dram.config.access_ns

    def test_install_is_read_modify_write(self):
        translator, dram = self.make()
        done = translator.install(5, 500, now=0.0)
        assert dram.reads == 1
        assert dram.writes == 1
        assert done >= 2 * dram.config.access_ns

    def test_hit_after_install(self):
        translator, _dram = self.make()
        translator.install(5, 500, now=0.0)
        fam_page, _completion = translator.lookup_fast(5, now=200.0)
        assert fam_page == 500

    def test_row_addresses_inside_region(self):
        translator, _dram = self.make()
        for node_page in (0, 1, 17, 161):
            addr = translator.row_address(node_page)
            assert 0x3FF00000 <= addr < 0x3FF00000 + 1024

    def test_shootdown_invalidates_and_writes(self):
        translator, dram = self.make()
        translator.install(5, 500, now=0.0)
        translator.shootdown(5, now=100.0)
        assert translator.lookup_fast(5, now=200.0)[0] is None
        assert dram.writes == 2  # install write + shootdown write

    def test_hit_rate_reported(self):
        translator, _dram = self.make()
        translator.install(5, 500, now=0.0)
        translator.lookup_fast(5, now=0.0)
        translator.lookup_fast(6, now=0.0)
        assert translator.hit_rate == 0.5
