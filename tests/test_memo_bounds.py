"""Bounds on the decoded-trace memo.

The per-geometry decoded-trace cache is LRU-capped through
:class:`repro.memo.BoundedMemo`, so long many-trace sweeps cannot grow
it without limit.  Eviction only ever costs a recompute — these tests
also pin that recomputed entries are correct.
"""

import pytest

from repro.errors import ConfigError
from repro.memo import BoundedMemo
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
