"""Tests for sweep specs, :func:`run_sweep` and the lock-safe result
cache."""

import json
import multiprocessing
import os
import time

import pytest

from repro.config.presets import default_config
from repro.errors import CacheLockTimeout, CacheMergeConflict, ConfigError
from repro.experiments.cachefile import (
    cache_lock,
    load_cache,
    merge_into_cache,
    payloads_equivalent,
)
from repro.experiments.runner import (
    ExperimentRunner,
    RunSettings,
    SweepJob,
    _result_to_dict,
    execute_job,
    job_key,
)
from repro.experiments.sweep import (
    SWEEP_AXES,
    SweepProgress,
    SweepSpec,
    run_sweep,
)

FAST = RunSettings(n_events=1500, footprint_scale=0.01, seed=3)


class TestSweepSpec:
    def test_defaults_cover_everything(self):
        spec = SweepSpec.build()
        assert "mcf" in spec.benchmarks
        assert set(spec.architectures) == {"e-fam", "i-fam",
                                           "deact-w", "deact-n"}
        assert spec.variants[0][0] == "default"

    def test_axis_expansion(self):
        spec = SweepSpec.build(benchmarks=["mcf"],
                               architectures=["e-fam"],
                               axes={"stu-entries": [256, 512]})
        labels = [label for label, _ in spec.variants]
        assert labels == ["stu-entries=256", "stu-entries=512"]
        assert spec.variants[0][1].stu.entries == 256
        assert len(spec) == 2

    def test_axes_cross_product(self):
        spec = SweepSpec.build(benchmarks=["mcf"],
                               architectures=["e-fam"],
                               axes={"stu-entries": [256, 512],
                                     "nodes": [1, 2]})
        labels = [label for label, _ in spec.variants]
        assert len(labels) == 4
        assert "stu-entries=256,nodes=2" in labels

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError, match="unknown benchmark"):
            SweepSpec.build(benchmarks=["doom"])

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigError, match="unknown architecture"):
            SweepSpec.build(architectures=["z-fam"])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            SweepSpec.build(axes={"warp-factor": [9]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="no values"):
            SweepSpec.build(axes={"stu-entries": []})

    def test_unparseable_axis_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value 'abc'"):
            SweepSpec.build(axes={"stu-entries": ["abc"]})

    def test_every_axis_produces_distinct_config(self):
        base = default_config()
        samples = {"stu-entries": 256, "stu-associativity": 4,
                   "acm-bits": 8, "acm-subways": 1,
                   "fabric-latency-ns": 3000, "nodes": 2,
                   "allocation-policy": "contiguous"}
        assert set(samples) == set(SWEEP_AXES)
        for axis, value in samples.items():
            parse, apply = SWEEP_AXES[axis]
            assert apply(base, parse(str(value))) != base

    def test_jobs_expand_in_spec_order(self):
        spec = SweepSpec.build(benchmarks=["mcf", "canl"],
                               architectures=["e-fam"])
        cells = [cell for cell, _ in spec.jobs(FAST)]
        assert cells == [("mcf", "e-fam", "default"),
                         ("canl", "e-fam", "default")]


class TestRunSweep:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            ExperimentRunner(FAST, jobs=0)

    def test_returns_every_cell(self):
        runner = ExperimentRunner(FAST, jobs=1)
        spec = SweepSpec.build(benchmarks=["mcf"],
                               architectures=["e-fam", "i-fam"])
        results = run_sweep(runner, spec)
        assert set(results) == {("mcf", "e-fam", "default"),
                                ("mcf", "i-fam", "default")}
        assert results[("mcf", "e-fam", "default")].benchmark == "mcf"

    def test_duplicate_cells_share_one_run(self):
        # Two variants with structurally identical configs produce the
        # same cache key; the runner must execute the run only once.
        config = default_config()
        spec = SweepSpec(benchmarks=("mcf",), architectures=("e-fam",),
                         variants=(("a", config), ("b", config)))
        executed = []
        runner = ExperimentRunner(FAST, jobs=1,
                                  progress=lambda done, total: executed.append(
                                      (done, total)))
        results = run_sweep(runner, spec)
        assert executed == [(1, 1)]
        assert _result_to_dict(results[("mcf", "e-fam", "a")]) == \
            _result_to_dict(results[("mcf", "e-fam", "b")])

    def test_merges_into_cache_and_recalls(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        spec = SweepSpec.build(benchmarks=["mcf"],
                               architectures=["e-fam"])
        run_sweep(ExperimentRunner(FAST, cache_path=cache, jobs=1), spec)
        with open(cache) as handle:
            on_disk = json.load(handle)
        job = SweepJob("mcf", "e-fam", default_config(), FAST)
        assert job_key(job) in on_disk

        executed = []
        runner = ExperimentRunner(FAST, cache_path=cache, jobs=1,
                                  progress=lambda d, t: executed.append(d))
        recalled = run_sweep(runner, spec)
        assert executed == []  # everything came from the cache
        assert recalled[("mcf", "e-fam", "default")].benchmark == "mcf"

    def test_parallel_engine_merges_all_results(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        spec = SweepSpec.build(benchmarks=["mcf", "canl"],
                               architectures=["e-fam", "i-fam"])
        results = run_sweep(ExperimentRunner(FAST, cache_path=cache,
                                             jobs=2), spec)
        assert len(results) == 4
        assert len(load_cache(cache)) == 4


class TestCacheFile:
    def test_load_missing_is_empty(self, tmp_path):
        assert load_cache(str(tmp_path / "nope.json")) == {}

    def test_load_garbage_is_empty_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text("{\"truncated\": ")
        with caplog.at_level("WARNING"):
            assert load_cache(str(path)) == {}
        assert "unreadable result cache" in caplog.text

    def test_load_non_object_is_empty_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text("[1, 2, 3]")
        with caplog.at_level("WARNING"):
            assert load_cache(str(path)) == {}
        assert "expected a JSON object" in caplog.text

    def test_merge_preserves_other_writers_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        merge_into_cache(path, {"a": {"v": 1}})
        merge_into_cache(path, {"b": {"v": 2}})
        assert load_cache(path) == {"a": {"v": 1}, "b": {"v": 2}}

    def test_merge_returns_merged_view(self, tmp_path):
        path = str(tmp_path / "cache.json")
        merge_into_cache(path, {"a": {"v": 1}})
        merged = merge_into_cache(path, {"a": {"v": 3}, "b": {"v": 2}})
        assert merged == {"a": {"v": 3}, "b": {"v": 2}}

    def test_fallback_lock_serializes_writers(self, tmp_path, monkeypatch):
        # Simulate a platform without fcntl: the exclusive-create spin
        # lock must still serialize concurrent writers.
        import repro.experiments.cachefile as cachefile

        monkeypatch.setattr(cachefile, "fcntl", None)
        path = str(tmp_path / "cache.json")
        merge_into_cache(path, {"a": {"v": 1}})
        merge_into_cache(path, {"b": {"v": 2}})
        assert load_cache(path) == {"a": {"v": 1}, "b": {"v": 2}}
        assert not os.path.exists(path + ".lock")  # released
        if "fork" in multiprocessing.get_all_start_methods():
            # Forked children inherit the monkeypatched module, so the
            # hammer below exercises the fallback lock cross-process.
            with multiprocessing.get_context("fork").Pool(2) as pool:
                pool.starmap(_merge_worker, [(path, 0), (path, 1)])
            merged = load_cache(path)
            assert all(f"w{w}-k{i}" in merged
                       for w in range(2) for i in range(25))

    def test_fallback_lock_breaks_stale_lock(self, tmp_path, monkeypatch):
        import repro.experiments.cachefile as cachefile

        monkeypatch.setattr(cachefile, "fcntl", None)
        path = str(tmp_path / "cache.json")
        lock = path + ".lock"
        with open(lock, "w"):
            pass
        stale = time.time() - 120.0
        os.utime(lock, (stale, stale))
        merge_into_cache(path, {"a": {"v": 1}})  # must not deadlock
        assert load_cache(path) == {"a": {"v": 1}}

    def test_fallback_lock_times_out_without_breaking_live_lock(
            self, tmp_path, monkeypatch):
        # Regression: a *fresh* lock (live holder) that outlasts the
        # deadline must raise a timeout, never be unlinked — breaking
        # it would let two live writers race the cache file.
        import repro.experiments.cachefile as cachefile

        monkeypatch.setattr(cachefile, "fcntl", None)
        path = str(tmp_path / "cache.json")
        lock = path + ".lock"
        with open(lock, "w"):
            pass  # fresh mtime: the holder is "alive"
        with pytest.raises(CacheLockTimeout, match="live process"):
            with cache_lock(path, timeout_s=0.1):
                pass
        assert os.path.exists(lock)  # the holder's lock survived

    def test_fallback_lock_timeout_leaves_cache_untouched(
            self, tmp_path, monkeypatch):
        import repro.experiments.cachefile as cachefile

        monkeypatch.setattr(cachefile, "fcntl", None)
        path = str(tmp_path / "cache.json")
        merge_into_cache(path, {"a": {"v": 1}})
        with open(path + ".lock", "w"):
            pass
        with pytest.raises(CacheLockTimeout):
            merge_into_cache(path, {"b": {"v": 2}}, timeout_s=0.1)
        assert load_cache(path) == {"a": {"v": 1}}

    def test_posix_flock_honors_timeout(self, tmp_path):
        # The timeout contract must hold on the flock path too, not
        # just the non-fcntl fallback: a hung holder must surface as
        # CacheLockTimeout, not an eternal block.  flock locks are
        # per open file description, so a second open() in the same
        # process genuinely contends.
        fcntl = pytest.importorskip("fcntl")
        path = str(tmp_path / "cache.json")
        holder = open(path + ".lock", "w")
        try:
            fcntl.flock(holder, fcntl.LOCK_EX)
            with pytest.raises(CacheLockTimeout, match="flock"):
                with cache_lock(path, timeout_s=0.2):
                    pass
        finally:
            fcntl.flock(holder, fcntl.LOCK_UN)
            holder.close()
        with cache_lock(path, timeout_s=1.0):  # acquirable again
            pass

    def test_flock_timeout_names_live_holder(self, tmp_path):
        # Whoever acquires through cache_lock records hostname:pid in
        # the lock file; a waiter that times out reports that identity
        # so the operator knows which process to chase.  flock is per
        # open file description, so the nested acquire below genuinely
        # contends with the outer one.
        import socket

        pytest.importorskip("fcntl")
        path = str(tmp_path / "cache.json")
        me = f"{socket.gethostname()}:{os.getpid()}"
        with cache_lock(path, timeout_s=1.0):
            with pytest.raises(CacheLockTimeout) as excinfo:
                with cache_lock(path, timeout_s=0.2):
                    pass
        message = str(excinfo.value)
        assert "lock file names holder" in message
        assert me in message

    def test_fallback_timeout_names_live_holder(self, tmp_path,
                                                monkeypatch):
        import repro.experiments.cachefile as cachefile

        monkeypatch.setattr(cachefile, "fcntl", None)
        path = str(tmp_path / "cache.json")
        with open(path + ".lock", "w") as handle:
            handle.write("otherhost:12345\n")  # a fresh, live holder
        with pytest.raises(CacheLockTimeout) as excinfo:
            with cache_lock(path, timeout_s=0.1):
                pass
        assert "lock file names holder otherhost:12345" in str(
            excinfo.value)

    def test_cache_files_honor_umask(self, tmp_path):
        # mkstemp alone would leave 0600 files; other-uid readers on
        # a shared filesystem (the cross-host merge) need the mode a
        # plain open() would have produced.
        path = str(tmp_path / "cache.json")
        old_umask = os.umask(0o022)
        try:
            merge_into_cache(path, {"a": {"v": 1}})
        finally:
            os.umask(old_umask)
        assert os.stat(path).st_mode & 0o777 == 0o644

    def test_merge_conflict_warns_by_default(self, tmp_path, caplog):
        path = str(tmp_path / "cache.json")
        merge_into_cache(path, {"a": {"v": 1}})
        with caplog.at_level("WARNING"):
            merged = merge_into_cache(path, {"a": {"v": 2}})
        assert merged == {"a": {"v": 2}}  # incoming wins, loudly
        assert "different payloads" in caplog.text

    def test_merge_conflict_strict_raises_and_writes_nothing(self, tmp_path):
        path = str(tmp_path / "cache.json")
        merge_into_cache(path, {"a": {"v": 1}, "b": {"v": 2}})
        with pytest.raises(CacheMergeConflict) as excinfo:
            merge_into_cache(path, {"a": {"v": 9}, "c": {"v": 3}},
                             strict=True)
        assert excinfo.value.keys == ("a",)
        # The whole merge aborted: not even the clean key landed.
        assert load_cache(path) == {"a": {"v": 1}, "b": {"v": 2}}

    def test_merge_telemetry_difference_is_not_a_conflict(
            self, tmp_path, caplog):
        path = str(tmp_path / "cache.json")
        payload = {"architecture": "e-fam", "nodes": []}
        merge_into_cache(path, {"a": dict(payload,
                                          telemetry={"wall_s": 0.5})})
        with caplog.at_level("WARNING"):
            merge_into_cache(path, {"a": dict(payload,
                                              telemetry={"wall_s": 7.0})},
                             strict=True)
        assert "different payloads" not in caplog.text

    def test_payloads_equivalent_semantics(self):
        base = {"architecture": "e-fam", "nodes": [{"cycles": 10}]}
        assert payloads_equivalent(base, dict(base))
        assert payloads_equivalent(dict(base, telemetry={"wall_s": 1}),
                                   dict(base, telemetry={"wall_s": 2}))
        assert not payloads_equivalent(base, dict(base, architecture="x"))
        assert not payloads_equivalent(base, "not-a-dict")

    def test_merge_writes_sorted_keys_and_cleans_temp_files(self, tmp_path):
        path = str(tmp_path / "cache.json")
        merge_into_cache(path, {"zz": {"v": 1}})
        merge_into_cache(path, {"aa": {"v": 2}})
        assert list(load_cache(path)) == ["aa", "zz"]  # canonical order
        leftovers = [name for name in os.listdir(tmp_path)
                     if ".tmp." in name]
        assert leftovers == []

    def test_failed_write_cleans_its_temp_file(self, tmp_path, monkeypatch):
        # Failing *after* the temp file exists (serialization happens
        # before mkstemp now, so patch os.replace, the last step that
        # can raise) must unlink it — no .tmp. debris accumulates from
        # writers that error out instead of dying.
        import repro.experiments.cachefile as cachefile

        path = str(tmp_path / "cache.json")

        def explode(*args, **kwargs):
            raise OSError("disk on fire")

        monkeypatch.setattr(cachefile.os, "replace", explode)
        with pytest.raises(OSError):
            merge_into_cache(path, {"a": {"v": 1}})
        assert [name for name in os.listdir(tmp_path)
                if ".tmp." in name] == []

    def test_concurrent_merges_lose_nothing(self, tmp_path):
        # Hammer one cache file from several processes; every entry
        # written by any of them must survive (no torn/clobbered file).
        path = str(tmp_path / "cache.json")
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        with context.Pool(4) as pool:
            pool.starmap(_merge_worker,
                         [(path, worker) for worker in range(4)])
        merged = load_cache(path)
        assert len(merged) == 4 * 25
        assert all(merged[f"w{w}-k{i}"] == {"worker": w, "item": i}
                   for w in range(4) for i in range(25))


def _merge_worker(path: str, worker: int) -> None:
    for item in range(25):
        merge_into_cache(path, {f"w{worker}-k{item}":
                                {"worker": worker, "item": item}})


class TestSweepProgress:
    def test_reports_counts_and_eta(self):
        import io

        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        progress(1, 4)
        progress(4, 4)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[sweep] 1/4 runs done")
        assert "eta" in lines[0]
        assert lines[-1].startswith("[sweep] 4/4 runs done")

    def test_clock_starts_with_the_batch(self, monkeypatch):
        # The first result lands 6 s after the batch started: the first
        # update counts those 6 s, and the ETA extrapolates from them.
        import io

        from repro.experiments import sweep

        clock = iter([100.0, 106.0, 112.0])
        monkeypatch.setattr(sweep.time, "monotonic", lambda: next(clock))
        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        progress(1, 4)
        progress(2, 4)
        assert stream.getvalue().splitlines() == [
            "[sweep] 1/4 runs done, elapsed 6.0s, eta 18.0s",
            "[sweep] 2/4 runs done, elapsed 12.0s, eta 12.0s",
        ]
