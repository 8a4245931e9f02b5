"""Tests for statistics registries."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Stats, geometric_mean


class TestStats:
    def test_counters_start_at_zero(self):
        stats = Stats()
        assert stats.get("anything") == 0.0
        assert stats["anything"] == 0.0

    def test_incr_defaults_to_one(self):
        stats = Stats()
        stats.incr("hits")
        stats.incr("hits")
        assert stats["hits"] == 2.0

    def test_incr_amount(self):
        stats = Stats()
        stats.incr("bytes", 64)
        assert stats["bytes"] == 64.0

    def test_hit_rate_helper(self):
        stats = Stats()
        stats.incr("tlb.hits", 9)
        stats.incr("tlb.misses", 1)
        assert stats.hit_rate("tlb") == 0.9

    def test_snapshot_is_a_copy(self):
        stats = Stats()
        stats.incr("x")
        snap = stats.snapshot()
        snap["x"] = 99
        assert stats["x"] == 1.0

    def test_contains_and_keys(self):
        stats = Stats()
        stats.incr("a")
        assert "a" in stats
        assert "b" not in stats
        assert list(stats.keys()) == ["a"]

    def test_reset(self):
        stats = Stats()
        stats.incr("a")
        stats.reset()
        assert stats["a"] == 0.0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=1, max_size=20))
    def test_bounded_by_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9
