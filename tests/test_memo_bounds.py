"""The bounded LRU memo and the decoded-trace memo.

:class:`repro.memo.BoundedMemo` caps the harness's trace memo, so long
many-trace sweeps cannot grow it without limit; eviction only ever
costs a recompute.  A trace keeps exactly one decode, since page and
block size are fixed.
"""

import pytest

from repro.errors import ConfigError
from repro.memo import BoundedMemo
from repro.workloads.trace import Trace


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

    def test_recent_geometry_stays_cached(self):
        trace = self._trace()
        decoded = trace.decoded(4096, 64)
        assert trace.decoded(4096, 64) is decoded
        assert trace.decoded() is decoded
