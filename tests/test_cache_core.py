"""Tests for the set-associative cache core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.errors import ConfigError


class TestBasicOperation:
    def test_miss_then_fill_then_hit(self):
        cache = SetAssociativeCache("c", 4, 2)
        assert cache.get_line(5) is None
        assert cache.fill_line(5, "payload") is None
        assert cache.get_line(5) == "payload"

    def test_probe_does_not_count(self):
        cache = SetAssociativeCache("c", 4, 2)
        cache.fill_line(5, True)
        cache.probe(5)
        cache.probe(6)
        assert cache.hits == 0
        assert cache.misses == 0

    def test_contains(self):
        cache = SetAssociativeCache("c", 4, 2)
        cache.fill_line(8, 1)
        assert 8 in cache
        assert 9 not in cache

    def test_len_counts_lines(self):
        cache = SetAssociativeCache("c", 4, 2)
        for key in range(5):
            cache.fill_line(key, key)
        assert len(cache) == 5

    def test_refill_replaces_in_place(self):
        cache = SetAssociativeCache("c", 4, 2)
        cache.fill_line(3, "old")
        cache.fill_line(3, "new")
        assert cache.get_line(3) == "new"
        assert len(cache) == 1

    def test_invalidate(self):
        cache = SetAssociativeCache("c", 4, 2)
        cache.fill_line(3, 1)
        assert cache.invalidate(3) is True
        assert cache.invalidate(3) is False
        assert 3 not in cache

    def test_clear(self):
        cache = SetAssociativeCache("c", 4, 2)
        for key in range(8):
            cache.fill_line(key, key)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache("c", 0, 2)
        with pytest.raises(ConfigError):
            SetAssociativeCache("c", 4, 0)
        with pytest.raises(ConfigError):
            SetAssociativeCache("c", 4, 2, replacement="plru")


class TestSetMapping:
    def test_keys_map_to_sets_by_modulo(self):
        cache = SetAssociativeCache("c", 4, 1)
        cache.fill_line(0, "a")
        cache.fill_line(4, "b")  # same set as 0, 1-way: evicts
        assert 0 not in cache
        assert 4 in cache

    def test_different_sets_do_not_conflict(self):
        cache = SetAssociativeCache("c", 4, 1)
        cache.fill_line(0, "a")
        cache.fill_line(1, "b")
        assert 0 in cache and 1 in cache


class TestLruReplacement:
    def test_evicts_least_recently_used(self):
        cache = SetAssociativeCache("c", 1, 2)
        cache.fill_line(1, "a")
        cache.fill_line(2, "b")
        cache.get_line(1)  # promote 1
        assert cache.fill_line(3, "c") == (2, "b")

    def test_fill_promotes(self):
        cache = SetAssociativeCache("c", 1, 2)
        cache.fill_line(1, "a")
        cache.fill_line(2, "b")
        assert cache.fill_line(1, "a2") is None  # refill promotes 1
        assert cache.fill_line(3, "c") == (2, "b")

    def test_eviction_reports_payload(self):
        cache = SetAssociativeCache("c", 1, 1)
        cache.fill_line(1, "victim")
        assert cache.fill_line(2, "new") == (1, "victim")
        assert cache.evictions == 1


class TestFifoReplacement:
    def test_hits_do_not_promote(self):
        cache = SetAssociativeCache("c", 1, 2, replacement="fifo")
        cache.fill_line(1, "a")
        cache.fill_line(2, "b")
        cache.get_line(1)  # FIFO ignores the touch
        assert cache.fill_line(3, "c") == (1, "a")


class TestRandomReplacement:
    def test_deterministic_with_seed(self):
        def run(seed):
            cache = SetAssociativeCache("c", 1, 4, replacement="random",
                                        seed=seed)
            for key in range(10):
                cache.fill_line(key, key)
            return sorted(k for k in range(10) if k in cache)
        assert run(1) == run(1)

    def test_evicts_some_resident_line(self):
        cache = SetAssociativeCache("c", 1, 2, replacement="random", seed=3)
        cache.fill_line(1, "a")
        cache.fill_line(2, "b")
        assert cache.fill_line(3, "c") in ((1, "a"), (2, "b"))


class TestDirtyTracking:
    """Stores that track dirtiness (the data caches) keep the dirty bit
    as the line's payload."""

    def test_write_marks_dirty(self):
        cache = SetAssociativeCache("c", 1, 1)
        cache.fill_line(1, False)
        assert cache.get_line(1, write=True) is True
        assert cache.fill_line(2, False) == (1, True)

    def test_clean_eviction(self):
        cache = SetAssociativeCache("c", 1, 1)
        cache.fill_line(1, False)
        victim_key, victim_dirty = cache.fill_line(2, False)
        assert victim_key == 1
        assert victim_dirty is False


class TestStatistics:
    def test_hit_rate(self):
        cache = SetAssociativeCache("c", 4, 2)
        cache.fill_line(1, True)
        cache.get_line(1)
        cache.get_line(2)
        assert cache.hit_rate == 0.5

    def test_reset_stats_keeps_contents(self):
        cache = SetAssociativeCache("c", 4, 2)
        cache.fill_line(1, True)
        cache.get_line(1)
        cache.reset_stats()
        assert cache.hits == 0
        assert 1 in cache


class TestCapacityInvariants:
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8),
           st.lists(st.integers(min_value=0, max_value=500),
                    min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_occupancy_never_exceeds_geometry(self, n_sets, assoc, keys):
        """Invariant: each set holds at most ``associativity`` lines."""
        cache = SetAssociativeCache("c", n_sets, assoc)
        for key in keys:
            cache.fill_line(key, key)
        assert len(cache) <= n_sets * assoc
        for lines in cache._sets:
            assert len(lines) <= assoc

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_most_recent_fill_always_resident(self, keys):
        """Invariant: the line just filled is never the one evicted."""
        cache = SetAssociativeCache("c", 2, 2)
        for key in keys:
            cache.fill_line(key, key)
            assert key in cache

    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_hits_plus_misses_equals_accesses(self, keys):
        cache = SetAssociativeCache("c", 2, 4)
        for key in keys:
            if cache.get_line(key) is None:
                cache.fill_line(key, key)
        assert cache.hits + cache.misses == len(keys)


class TestFifoFillInPlaceRegression:
    """Regression for the FIFO aging bug: a fill on an
    already-present key used to ``move_to_end`` unconditionally,
    refreshing the line's insertion age under FIFO — replace-in-place
    must preserve insertion order."""

    def _filled(self, policy):
        from repro.cache.cache import SetAssociativeCache

        cache = SetAssociativeCache("t", n_sets=1, associativity=3,
                                    replacement=policy)
        cache.fill_line(10, "a")
        cache.fill_line(11, "b")
        cache.fill_line(12, "c")
        return cache

    def test_fifo_replace_in_place_preserves_age(self):
        cache = self._filled("fifo")
        cache.fill_line(10, "a2")  # replace in place — age must not refresh
        # 10 is still the oldest, and carries the replaced payload.
        assert cache.fill_line(13, "d") == (10, "a2")

    def test_fifo_fill_line_preserves_age(self):
        cache = self._filled("fifo")
        assert cache.fill_line(10, "a2") is None
        evicted = cache.fill_line(13, "d")
        assert evicted is not None and evicted[0] == 10

    def test_fifo_hits_still_do_not_promote(self):
        cache = self._filled("fifo")
        cache.get_line(10)
        assert cache.fill_line(13, "d") == (10, "a")

    def test_lru_replace_in_place_does_promote(self):
        # LRU semantics are unchanged: a fill is a touch.
        cache = self._filled("lru")
        cache.fill_line(10, "a2")
        assert cache.fill_line(13, "d") == (11, "b")

    def test_replace_in_place_keeps_dirty_bit(self):
        # A data cache's payload is the line's dirty bit.  The
        # hierarchy refills a resident line only to absorb a dirty
        # victim (payload True), so a dirty line stays dirty, and the
        # refill keeps its FIFO age.
        cache = self._filled("fifo")
        cache.fill_line(10, True)
        cache.fill_line(10, True)
        evicted = cache.fill_line(13, "d")
        assert evicted == (10, True)
