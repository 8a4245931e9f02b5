"""Tests for the FAM translator and its translation cache."""

from repro.config.system import LocalMemoryConfig, TranslationCacheConfig
from repro.mem.device import DramDevice
from repro.translator.fam_translator import FamTranslator
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

    #: Five mappings in one set (16 sets, 4-way): one must go.
    ROW_KEYS = [16 * i for i in range(5)]

    def _overfilled_row(self, seed):
        cache = TranslationCache(small_tcache_config(), seed=seed)
        for key in self.ROW_KEYS:
            cache.install(key, key + 1)
        return cache

    def _victims(self, seed):
        cache = self._overfilled_row(seed)
        return [k for k in self.ROW_KEYS if cache.lookup(k) is None]

    def test_random_replacement_within_row(self):
        # Exactly one of the five goes, and the seed picks which.
        victims = self._victims(seed=0)
        assert len(victims) == 1
        assert self._victims(seed=0) == victims
        assert any(self._victims(seed) != victims for seed in range(1, 10))
        # A hit leaves the row's order (the victim draw's input) alone.
        cache = self._overfilled_row(seed=0)
        row = cache._cache._sets[cache.set_index(self.ROW_KEYS[0])]
        order = list(row)
        assert cache.lookup(order[0]) == order[0] + 1
        assert list(row) == order

    def test_invalidate(self):
        cache = TranslationCache(small_tcache_config())
        cache.install(5, 500)
        assert cache.invalidate(5)
        assert cache.lookup(5) is None


def dram_reservations(dram):
    """DRAM accesses so far: every read and write reserves a bank."""
    return sum(bank.reservations for bank in dram.banks._banks)


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
        assert dram_reservations(dram) == 1
        assert completion >= dram.config.access_ns

    def test_install_is_read_modify_write(self):
        translator, dram = self.make()
        done = translator.install(5, 500, now=0.0)
        # A read and then a write of the same row: one bank, serialized.
        assert dram_reservations(dram) == 2
        assert done == 2 * dram.config.access_ns

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
        # Install read + write, shootdown write, then the lookup read.
        assert dram_reservations(dram) == 4

    def test_hit_rate_reported(self):
        translator, _dram = self.make()
        translator.install(5, 500, now=0.0)
        translator.lookup_fast(5, now=0.0)
        translator.lookup_fast(6, now=0.0)
        assert translator.hit_rate == 0.5
