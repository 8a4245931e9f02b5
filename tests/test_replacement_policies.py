"""Tests for the standalone replacement-policy objects.

The cache core inlines LRU/FIFO/random for speed; these policy classes
remain part of the public API for users building custom structures.
"""

import pytest

from repro.cache.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)


class TestLruPolicy:
    def test_promotes_on_access(self):
        policy = LruPolicy()
        order = [1, 2, 3]
        policy.on_access(order, 1)
        assert order == [2, 3, 1]

    def test_victim_is_front(self):
        assert LruPolicy().select_victim([5, 6, 7]) == 5

    def test_new_way_appended(self):
        policy = LruPolicy()
        order = [1]
        policy.on_access(order, 9)
        assert order == [1, 9]


class TestFifoPolicy:
    def test_hits_do_not_promote(self):
        policy = FifoPolicy()
        order = [1, 2, 3]
        policy.on_access(order, 1)
        assert order == [1, 2, 3]

    def test_fill_moves_to_back(self):
        policy = FifoPolicy()
        order = [1, 2, 3]
        policy.on_fill(order, 1)
        assert order == [2, 3, 1]

    def test_victim_is_front(self):
        assert FifoPolicy().select_victim([4, 5]) == 4


class TestRandomPolicy:
    def test_deterministic_by_seed(self):
        a = RandomPolicy(seed=2)
        b = RandomPolicy(seed=2)
        order = [1, 2, 3, 4]
        picks_a = [a.select_victim(order) for _ in range(10)]
        picks_b = [b.select_victim(order) for _ in range(10)]
        assert picks_a == picks_b

    def test_victim_always_resident(self):
        policy = RandomPolicy(seed=5)
        order = [7, 8, 9]
        for _ in range(20):
            assert policy.select_victim(order) in order


class TestFactory:
    def test_make_each(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("fifo"), FifoPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("plru")


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
