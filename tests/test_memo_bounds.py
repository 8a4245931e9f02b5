"""The bounded LRU memo, the decoded-trace memo and the stream memo.

:class:`repro.memo.BoundedMemo` caps the harness's trace and stream
memos, so long many-trace sweeps cannot grow them without limit;
eviction only ever costs a recompute.  A trace keeps exactly one
decode, since page and block size are fixed.
"""

import dataclasses

import pytest

from repro.config.presets import (
    default_config,
    with_fabric_latency,
    with_stu_entries,
)
from repro.errors import ConfigError
from repro.experiments import runner
from repro.memo import BoundedMemo
from repro.workloads.trace import Trace

SETTINGS = runner.RunSettings(n_events=800, footprint_scale=0.01, seed=7)


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


class TestStreamMemo:
    """:func:`execute_job`'s node-side stream memo: bounded, keyed by
    the node-side inputs only, and an eviction only costs a pass."""

    @pytest.fixture
    def memo(self, monkeypatch):
        memo = BoundedMemo(2)
        monkeypatch.setattr(runner, "_STREAM_MEMO", memo)
        return memo

    @staticmethod
    def _job(bench, arch, config=None):
        return runner.SweepJob(bench, arch, config or default_config(),
                               SETTINGS)

    @staticmethod
    def _run(job):
        payload = runner.execute_job(job)
        return payload.pop("telemetry"), payload

    def test_cells_past_the_llc_share_one_stream(self, memo):
        first, _ = self._run(self._job("mg", "e-fam"))
        assert first["node_pass_s"] > 0
        assert len(memo) == 1
        for job in (self._job("mg", "deact-n"),
                    self._job("mg", "i-fam",
                              with_stu_entries(default_config(), 256))):
            telemetry, _ = self._run(job)
            assert telemetry["node_pass_s"] == 0.0
        assert len(memo) == 1

    def test_bounded_and_eviction_only_recomputes(self, memo):
        _, cold = self._run(self._job("mg", "i-fam"))
        for bench in ("lu", "bc"):  # evict mg's stream
            self._run(self._job(bench, "i-fam"))
        assert len(memo) == memo.capacity == 2
        assert runner.node_side_key(self._job("mg", "i-fam"), 0) not in memo
        telemetry, rebuilt = self._run(self._job("mg", "i-fam"))
        assert telemetry["node_pass_s"] > 0
        telemetry, hit = self._run(self._job("mg", "i-fam"))
        assert telemetry["node_pass_s"] == 0.0
        assert cold == rebuilt == hit

    def test_key_leaves_out_only_what_the_node_side_never_reads(self):
        base = self._job("mg", "i-fam")
        same = (self._job("mg", "deact-w",
                          with_fabric_latency(default_config(), 100.0)),)
        different = (
            self._job("lu", "i-fam"),
            self._job("mg", "i-fam", default_config().replace(
                allocation=dataclasses.replace(
                    default_config().allocation, local_fraction=0.5))),
            runner.SweepJob("mg", "i-fam", default_config(),
                            dataclasses.replace(SETTINGS, seed=8)),
        )
        key = runner.node_side_key(base, 0)
        assert runner.node_side_key(base, 1) != key
        assert all(runner.node_side_key(job, 0) == key for job in same)
        assert all(runner.node_side_key(job, 0) != key for job in different)
