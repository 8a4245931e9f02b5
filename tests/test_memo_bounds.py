"""Bounds on the hot-path memo caches.

PR 2's pure memo layers (per-geometry trace decode, per-VPN page-walk
decomposition) were unbounded; they are now LRU-capped through
:class:`repro.memo.BoundedMemo` so long many-trace sweeps cannot grow
them without limit.  Eviction only ever costs a recompute — these
tests also pin that recomputed entries are correct.
"""

import pytest

from repro.errors import ConfigError
from repro.memo import BoundedMemo
from repro.pagetable.x86 import FourLevelPageTable, WALK_MEMO_CAP
from repro.workloads.trace import DECODED_MEMO_CAP, Trace


class TestBoundedMemo:
    def test_capacity_enforced_lru(self):
        memo = BoundedMemo(3)
        for key in "abc":
            memo.put(key, key.upper())
        assert memo.get("a") == "A"      # refreshes a
        memo.put("d", "D")               # evicts b (coldest)
        assert len(memo) == 3
        assert "b" not in memo
        assert memo.get("b") is None
        assert memo.get("a") == "A"
        assert memo.get("d") == "D"

    def test_put_refreshes_and_replaces(self):
        memo = BoundedMemo(2)
        memo.put("x", 1)
        memo.put("y", 2)
        memo.put("x", 3)                 # replace refreshes recency
        memo.put("z", 4)                 # evicts y
        assert memo.get("x") == 3
        assert "y" not in memo

    def test_pop_and_clear(self):
        memo = BoundedMemo(2)
        memo.put("x", 1)
        assert memo.pop("x") == 1
        assert memo.pop("x", "gone") == "gone"
        memo.put("y", 2)
        memo.clear()
        assert len(memo) == 0

    def test_none_values_memoize(self):
        memo = BoundedMemo(2)
        memo.put("x", None)
        assert memo.get("x", "default") is None

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigError):
            BoundedMemo(0)


class TestDecodedCacheBound:
    def _trace(self):
        return Trace(name="t", gaps=[0, 1, 2], vaddrs=[0, 4096, 8192],
                     writes=[False, True, False],
                     dependents=[False, False, True])

    def test_cache_capped_across_geometries(self):
        trace = self._trace()
        block = 64
        for exponent in range(DECODED_MEMO_CAP + 3):
            trace.decoded(4096 << exponent, block)
        assert len(trace._decoded_cache) <= DECODED_MEMO_CAP

    def test_recent_geometry_stays_cached(self):
        trace = self._trace()
        decoded = trace.decoded(4096, 64)
        assert trace.decoded(4096, 64) is decoded

    def test_evicted_geometry_recomputes_identically(self):
        trace = self._trace()
        first = trace.decoded(4096, 64)
        for exponent in range(1, DECODED_MEMO_CAP + 2):
            trace.decoded(4096 << exponent, 64)
        again = trace.decoded(4096, 64)
        assert again is not first          # evicted, rebuilt
        assert again == first              # ... identically


class TestWalkMemoBound:
    def _table(self):
        frames = iter(range(1, 100000))
        return FourLevelPageTable(lambda: next(frames) * 4096, name="pt")

    def test_default_cap_is_bounded(self):
        table = self._table()
        assert table._walk_memo.capacity == WALK_MEMO_CAP

    def test_memo_never_exceeds_cap(self):
        table = self._table()
        table._walk_memo = BoundedMemo(8)
        for vpn in range(40):
            table.map(vpn, 5000 + vpn)
        for vpn in range(40):
            table.walk_entries_cached(vpn)
        assert len(table._walk_memo) <= 8
        # Evicted entries re-walk correctly.
        steps, entry = table.walk_entries_cached(0)
        assert entry.frame == 5000
        assert [step.level for step in steps] == [0, 1, 2, 3]

    def test_map_invalidates_memo_entry(self):
        table = self._table()
        table.map(7, 1234)
        _steps, entry = table.walk_entries_cached(7)
        assert entry.frame == 1234
        table.map(7, 4321)                 # remap must replace the entry
        _steps, entry = table.walk_entries_cached(7)
        assert entry.frame == 4321

    def test_map_seeds_memo_with_the_walk(self):
        table = self._table()
        installed = table.map(0x12345, 99)
        assert 0x12345 in table._walk_memo
        steps, entry = table.walk_entries_cached(0x12345)
        fresh_steps, fresh_entry = table.walk_entries(0x12345)
        assert steps == fresh_steps
        assert [step.level for step in steps] == [0, 1, 2, 3]
        assert entry is fresh_entry is installed

    def test_remap_seeds_memo_with_the_new_entry(self):
        table = self._table()
        table.map(0x12345, 99)
        table.walk_entries_cached(0x12345)
        remapped = table.map(0x12345, 100)
        steps, entry = table.walk_entries_cached(0x12345)
        fresh_steps, fresh_entry = table.walk_entries(0x12345)
        assert steps == fresh_steps
        assert entry is fresh_entry is remapped
        assert entry.frame == 100

    def test_map_alone_respects_cap(self):
        table = self._table()
        table._walk_memo = BoundedMemo(8)
        for vpn in range(40):
            table.map(vpn << 18, vpn)      # new interior tables too
        assert len(table._walk_memo) == 8
        for vpn in range(40):
            steps, entry = table.walk_entries_cached(vpn << 18)
            assert (steps, entry) == table.walk_entries(vpn << 18)

    def test_unmap_invalidates_memo_entry(self):
        from repro.errors import TranslationFault

        table = self._table()
        table.map(9, 77)
        table.walk_entries_cached(9)
        assert table.unmap(9)
        assert 9 not in table._walk_memo
        with pytest.raises(TranslationFault):
            table.walk_entries_cached(9)
