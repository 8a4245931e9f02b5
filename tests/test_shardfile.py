"""Tests for sweep sharding: partitioning, manifests, merge, validate.

Most tests here fabricate cache entries from the spec's own keys
instead of running simulations — partitioning, fingerprinting, and
the merge/validate pipeline are pure bookkeeping over keys and
payloads.  The end-to-end shards-vs-unsharded equivalence (with real
simulations) lives in ``tests/test_determinism.py``.
"""

import json
import os

import pytest

from repro.errors import CacheError, CacheMergeConflict, ConfigError
from repro.experiments.cachefile import load_cache, merge_into_cache
from repro.experiments.provenance import PROVENANCE_FIELDS, collect_provenance
from repro.experiments.runner import RunSettings, fingerprint_keys, job_key
from repro.experiments.shardfile import (
    ShardManifest,
    build_manifest,
    canonical_cache_text,
    discover_manifests,
    discover_shards,
    load_manifest,
    manifest_path,
    merge_shards,
    shard_cache_path,
    spec_fingerprint,
    validate_cache,
    write_manifest,
)
from repro.experiments.sweep import SweepSpec, parse_shard

FAST = RunSettings(n_events=1500, footprint_scale=0.01, seed=3)


def _spec() -> SweepSpec:
    return SweepSpec.build(benchmarks=["mcf", "canl"],
                           architectures=["e-fam", "i-fam"],
                           axes={"stu-entries": [256, 512]})


def _fake_entries(spec: SweepSpec, settings: RunSettings) -> dict:
    """key -> fake payload for every cell (no simulation)."""
    return {job_key(job): {"cell": list(cell)}
            for cell, job in spec.jobs(settings)}


class TestShardPartition:
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_disjoint_and_exhaustive(self, count):
        spec = _spec()
        cells = spec.jobs(FAST)
        union = []
        for index in range(1, count + 1):
            union.extend(spec.shard(index, count, FAST))
        assert sorted(c for c, _ in union) == sorted(c for c, _ in cells)
        assert len(union) == len(cells)  # disjoint: no double counting

    def test_stable_across_calls(self):
        spec = _spec()
        first = [c for c, _ in spec.shard(2, 3, FAST)]
        second = [c for c, _ in spec.shard(2, 3, FAST)]
        assert first == second

    def test_stride_spreads_spec_order(self):
        spec = _spec()
        cells = [c for c, _ in spec.jobs(FAST)]
        assert [c for c, _ in spec.shard(1, 2, FAST)] == cells[0::2]
        assert [c for c, _ in spec.shard(2, 2, FAST)] == cells[1::2]

    def test_shard_of_one_is_everything(self):
        spec = _spec()
        assert spec.shard(1, 1, FAST) == spec.jobs(FAST)

    @pytest.mark.parametrize("index,count", [(0, 2), (3, 2), (-1, 2)])
    def test_bad_index_rejected(self, index, count):
        with pytest.raises(ConfigError, match="shard index"):
            _spec().shard(index, count, FAST)

    def test_bad_count_rejected(self):
        with pytest.raises(ConfigError, match="shard count"):
            _spec().shard(1, 0, FAST)


class TestParseShard:
    def test_parses_index_and_count(self):
        assert parse_shard("2/4") == (2, 4)
        assert parse_shard("1/1") == (1, 1)

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/", "/2", "1/2/3"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ConfigError, match="--shard"):
            parse_shard(text)

    @pytest.mark.parametrize("text", ["0/2", "3/2", "1/0"])
    def test_out_of_range_rejected(self, text):
        with pytest.raises(ConfigError, match="--shard"):
            parse_shard(text)


class TestPaths:
    def test_shard_cache_path(self):
        assert shard_cache_path("results.json", 1, 2) == \
            "results.shard-1-of-2.json"
        assert shard_cache_path("/a/b/r.json", 3, 8) == \
            "/a/b/r.shard-3-of-8.json"

    def test_shard_cache_path_without_extension(self):
        assert shard_cache_path("results", 1, 2) == \
            "results.shard-1-of-2.json"

    def test_manifest_path(self):
        assert manifest_path("r.shard-1-of-2.json") == \
            "r.shard-1-of-2.manifest.json"

    def test_discover_shards_skips_manifests(self, tmp_path):
        base = str(tmp_path / "r.json")
        for index in (1, 2):
            path = shard_cache_path(base, index, 2)
            with open(path, "w") as handle:
                json.dump({}, handle)
            with open(manifest_path(path), "w") as handle:
                json.dump({}, handle)
        assert discover_shards(base) == [
            shard_cache_path(base, 1, 2), shard_cache_path(base, 2, 2)]

    def test_discover_shards_empty_when_none(self, tmp_path):
        assert discover_shards(str(tmp_path / "r.json")) == []

    def test_discover_shards_orders_numerically(self, tmp_path):
        # Lexicographic order would visit shard 10 before shard 2,
        # breaking first-seen-wins precedence in forced merges.
        base = str(tmp_path / "r.json")
        for index in (10, 2, 1, 11):
            with open(shard_cache_path(base, index, 12), "w") as handle:
                json.dump({}, handle)
        assert discover_shards(base) == [
            shard_cache_path(base, index, 12) for index in (1, 2, 10, 11)]


class TestFingerprint:
    def test_order_and_duplicate_independent(self):
        assert fingerprint_keys(["b", "a", "a"]) == \
            fingerprint_keys(["a", "b"])

    def test_spec_fingerprint_stable(self):
        assert spec_fingerprint(_spec(), FAST) == \
            spec_fingerprint(_spec(), FAST)

    def test_spec_fingerprint_tracks_spec_and_settings(self):
        base = spec_fingerprint(_spec(), FAST)
        narrower = SweepSpec.build(benchmarks=["mcf"],
                                   architectures=["e-fam", "i-fam"],
                                   axes={"stu-entries": [256, 512]})
        assert spec_fingerprint(narrower, FAST) != base
        rescaled = RunSettings(n_events=FAST.n_events,
                               footprint_scale=FAST.footprint_scale,
                               seed=FAST.seed + 1)
        assert spec_fingerprint(_spec(), rescaled) != base


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(_spec(), FAST, 2, 3)
        path = str(tmp_path / "r.shard-2-of-3.manifest.json")
        write_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded == manifest
        assert isinstance(loaded, ShardManifest)

    def test_covers_exactly_the_shard_keys(self):
        spec = _spec()
        manifest = build_manifest(spec, FAST, 1, 2)
        expected = sorted({job_key(job)
                           for _c, job in spec.shard(1, 2, FAST)})
        assert list(manifest.cell_keys) == expected
        assert manifest.total_cells == len(spec.jobs(FAST))
        assert manifest.fingerprint == spec_fingerprint(spec, FAST)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(CacheError, match="unreadable shard manifest"):
            load_manifest(str(path))

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(CacheError, match="schema"):
            load_manifest(str(path))

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": 1, "fingerprint": "x"}))
        with pytest.raises(CacheError, match="required"):
            load_manifest(str(path))

    def test_manifest_provenance_matches_collector(self, tmp_path):
        # Manifests draw provenance from the shared collector: the
        # manifest's host fields must round-trip and agree with what
        # the collector records.
        manifest = build_manifest(_spec(), FAST, 1, 2)
        path = str(tmp_path / "r.shard-1-of-2.manifest.json")
        write_manifest(path, manifest)
        loaded = load_manifest(path)
        provenance = collect_provenance()
        assert loaded.hostname == provenance["hostname"]
        assert loaded.pid == provenance["pid"]
        assert loaded.created_unix <= provenance["created_unix"]


class TestProvenance:
    def test_collect_provenance_contract(self):
        prov = collect_provenance()
        assert set(prov) == set(PROVENANCE_FIELDS)
        assert prov["pid"] == os.getpid()
        assert prov["python"].count(".") == 2
        assert prov["numpy"]

    def test_git_fields_inside_this_checkout(self):
        prov = collect_provenance(os.path.dirname(__file__))
        if prov["git_commit"] is not None:  # tolerate exported trees
            assert len(prov["git_commit"]) == 40
            assert isinstance(prov["git_dirty"], bool)

    def test_git_fields_none_outside_git(self, tmp_path):
        prov = collect_provenance(str(tmp_path))
        assert prov["git_commit"] is None
        assert prov["git_dirty"] is None
        assert prov["hostname"]  # host facts survive without git


class TestMergeShards:
    def _write_shards(self, base, spec, settings, count=2,
                      with_manifests=True):
        entries = _fake_entries(spec, settings)
        paths = []
        for index in range(1, count + 1):
            covered = {job_key(job): entries[job_key(job)]
                       for _c, job in spec.shard(index, count, settings)}
            path = shard_cache_path(base, index, count)
            merge_into_cache(path, covered)
            if with_manifests:
                write_manifest(manifest_path(path),
                               build_manifest(spec, settings, index, count))
            paths.append(path)
        return entries, paths

    def test_merges_all_shards(self, tmp_path):
        base = str(tmp_path / "r.json")
        spec = _spec()
        entries, _paths = self._write_shards(base, spec, FAST)
        merged, manifests, paths = merge_shards(base)
        assert merged == entries
        assert load_cache(base) == entries
        assert len(manifests) == 2

    def test_explicit_shard_list(self, tmp_path):
        base = str(tmp_path / "r.json")
        spec = _spec()
        entries, paths = self._write_shards(base, spec, FAST)
        merged, _manifests, used = merge_shards(base, paths)
        assert merged == entries
        assert used == paths

    def test_incomplete_shard_set_rejected(self, tmp_path, caplog):
        # One of two shards present: strict merge must refuse rather
        # than exit 0 with half the sweep silently missing.
        base = str(tmp_path / "r.json")
        spec = _spec()
        entries, paths = self._write_shards(base, spec, FAST)
        os.unlink(paths[1])
        os.unlink(manifest_path(paths[1]))
        with pytest.raises(CacheError, match="missing shard"):
            merge_shards(base)
        with caplog.at_level("WARNING"):
            merged, _manifests, _paths = merge_shards(base, strict=False)
        assert set(merged) < set(entries)
        assert "incomplete" in caplog.text

    def test_mixed_shard_counts_rejected(self, tmp_path):
        # Stale files from a previous partitioning (1-of-2 next to
        # 1-of-3) are inconsistent even though fingerprints agree.
        base = str(tmp_path / "r.json")
        spec = _spec()
        entries = _fake_entries(spec, FAST)
        for index, count in ((1, 2), (2, 2), (1, 3)):
            covered = {job_key(job): entries[job_key(job)]
                       for _c, job in spec.shard(index, count, FAST)}
            path = shard_cache_path(base, index, count)
            merge_into_cache(path, covered)
            write_manifest(manifest_path(path),
                           build_manifest(spec, FAST, index, count))
        with pytest.raises(CacheError, match="partitioned differently"):
            merge_shards(base)

    def test_no_shards_is_an_error(self, tmp_path):
        with pytest.raises(CacheError, match="no shard caches"):
            merge_shards(str(tmp_path / "r.json"))

    def test_zero_cell_shard_with_manifest_is_accepted(self, tmp_path):
        # More shards than cells: the high-index shards legitimately
        # cover zero cells.  Their manifests claim no keys, so strict
        # merge must accept the empty caches and see a complete set.
        base = str(tmp_path / "r.json")
        spec = SweepSpec.build(benchmarks=["mcf"],
                               architectures=["e-fam", "i-fam"])
        entries = _fake_entries(spec, FAST)
        for index in (1, 2, 3):
            covered = {job_key(job): entries[job_key(job)]
                       for _c, job in spec.shard(index, 3, FAST)}
            merge_into_cache(shard_cache_path(base, index, 3), covered)
            write_manifest(manifest_path(shard_cache_path(base, index, 3)),
                           build_manifest(spec, FAST, index, 3))
        assert not load_cache(shard_cache_path(base, 3, 3))  # zero cells
        merged, manifests, _paths = merge_shards(base)
        assert merged == entries
        assert len(manifests) == 3

    def test_zero_cell_shard_engine_round_trip(self, tmp_path):
        # End to end: running a stride past the cell count still
        # leaves a (empty) shard cache + manifest, so merge/validate
        # of the full set succeeds.
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.sweep import run_sweep

        base = str(tmp_path / "r.json")
        spec = SweepSpec.build(benchmarks=["mcf"],
                               architectures=["e-fam"])  # one cell
        for index in (1, 2):
            path = shard_cache_path(base, index, 2)
            results = run_sweep(ExperimentRunner(FAST, cache_path=path,
                                                 jobs=1),
                                spec, shard=(index, 2))
            assert os.path.exists(path)
            assert os.path.exists(manifest_path(path))
            assert len(results) == (1 if index == 1 else 0)
        merged, _manifests, _paths = merge_shards(base)
        assert len(merged) == 1
        report = validate_cache(base, spec, FAST)
        assert report.ok, report.render()

    def _write_conflicting_shards(self, base, spec, settings):
        """Two manifest-backed shards that disagree on one key: the
        first shard-2 key also appears in shard 1's cache with a
        doctored payload (manifests stay satisfied — they only claim
        their own shard's keys)."""
        entries = _fake_entries(spec, settings)
        clash_key = job_key(spec.shard(2, 2, settings)[0][1])
        shard1 = {job_key(job): entries[job_key(job)]
                  for _c, job in spec.shard(1, 2, settings)}
        shard1[clash_key] = {"doctored": True}
        shard2 = {job_key(job): entries[job_key(job)]
                  for _c, job in spec.shard(2, 2, settings)}
        paths = []
        for index, covered in ((1, shard1), (2, shard2)):
            path = shard_cache_path(base, index, 2)
            merge_into_cache(path, covered)
            write_manifest(manifest_path(path),
                           build_manifest(spec, settings, index, 2))
            paths.append(path)
        return clash_key, paths

    def test_cross_shard_conflict_rejected(self, tmp_path):
        base = str(tmp_path / "r.json")
        clash_key, paths = self._write_conflicting_shards(
            base, _spec(), FAST)
        with pytest.raises(CacheMergeConflict) as excinfo:
            merge_shards(base)
        assert "different payloads" in str(excinfo.value)
        assert clash_key in excinfo.value.keys
        # The error names the two disagreeing shard files.
        assert paths[0] in str(excinfo.value)
        assert paths[1] in str(excinfo.value)
        assert not os.path.exists(base)  # nothing written

    def test_cross_shard_conflict_forced_keeps_first(self, tmp_path, caplog):
        base = str(tmp_path / "r.json")
        clash_key, _paths = self._write_conflicting_shards(
            base, _spec(), FAST)
        with caplog.at_level("WARNING"):
            merged, _manifests, _paths = merge_shards(base, strict=False)
        assert merged[clash_key] == {"doctored": True}  # first seen wins
        assert "different payloads" in caplog.text

    def test_forced_merge_keeps_existing_canonical_entries(
            self, tmp_path, caplog):
        # --force precedence must be first-wins against the canonical
        # cache too: what the disk already held predates the shards.
        base = str(tmp_path / "r.json")
        merge_into_cache(base, {"k": {"v": "existing"}})
        merge_into_cache(shard_cache_path(base, 1, 1),
                         {"k": {"v": "incoming"}})
        with caplog.at_level("WARNING"):
            merged, _manifests, _paths = merge_shards(base, strict=False)
        assert merged["k"] == {"v": "existing"}
        assert "keeping" in caplog.text

    def test_missing_manifest_rejected_under_strict(self, tmp_path, caplog):
        base = str(tmp_path / "r.json")
        merge_into_cache(shard_cache_path(base, 1, 1), {"k": {"v": 1}})
        with pytest.raises(CacheError, match="no manifest"):
            merge_shards(base)
        with caplog.at_level("WARNING"):
            merged, _manifests, _paths = merge_shards(base, strict=False)
        assert merged == {"k": {"v": 1}}
        assert "no manifest" in caplog.text

    def test_telemetry_difference_is_not_a_conflict(self, tmp_path, caplog):
        base = str(tmp_path / "r.json")
        payload = {"architecture": "e-fam", "nodes": []}
        merge_into_cache(shard_cache_path(base, 1, 2),
                         {"k": dict(payload, telemetry={"wall_s": 1.0})})
        merge_into_cache(shard_cache_path(base, 2, 2),
                         {"k": dict(payload, telemetry={"wall_s": 9.0})})
        with caplog.at_level("WARNING"):
            merged, _manifests, _paths = merge_shards(base, strict=False)
        assert merged["k"]["architecture"] == "e-fam"
        assert "different payloads" not in caplog.text

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        base = str(tmp_path / "r.json")
        spec = _spec()
        other = SweepSpec.build(benchmarks=["mcf"],
                                architectures=["e-fam"])
        entries = _fake_entries(spec, FAST)
        path1 = shard_cache_path(base, 1, 2)
        merge_into_cache(path1, entries)
        write_manifest(manifest_path(path1),
                       build_manifest(spec, FAST, 1, 2))
        path2 = shard_cache_path(base, 2, 2)
        merge_into_cache(path2, _fake_entries(other, FAST))
        write_manifest(manifest_path(path2),
                       build_manifest(other, FAST, 2, 2))
        with pytest.raises(CacheMergeConflict, match="fingerprint"):
            merge_shards(base)

    def test_fingerprint_mismatch_forced_warns(self, tmp_path, caplog):
        base = str(tmp_path / "r.json")
        spec = _spec()
        other = SweepSpec.build(benchmarks=["mcf"],
                                architectures=["e-fam"])
        path1 = shard_cache_path(base, 1, 2)
        merge_into_cache(path1, _fake_entries(spec, FAST))
        write_manifest(manifest_path(path1),
                       build_manifest(spec, FAST, 1, 2))
        path2 = shard_cache_path(base, 2, 2)
        merge_into_cache(path2, _fake_entries(other, FAST))
        write_manifest(manifest_path(path2),
                       build_manifest(other, FAST, 2, 2))
        with caplog.at_level("WARNING"):
            merged, _manifests, _paths = merge_shards(base, strict=False)
        assert "fingerprint" in caplog.text
        assert merged  # merge still happened under --force

    def test_unreadable_manifest_forced_is_skipped(self, tmp_path, caplog):
        base = str(tmp_path / "r.json")
        path = shard_cache_path(base, 1, 1)
        merge_into_cache(path, {"k": {"v": 1}})
        with open(manifest_path(path), "w") as handle:
            handle.write("{truncated")
        with pytest.raises(CacheError, match="unreadable shard manifest"):
            merge_shards(base)
        with caplog.at_level("WARNING"):
            merged, manifests, _paths = merge_shards(base, strict=False)
        assert merged == {"k": {"v": 1}}
        assert manifests == {}
        assert "ignoring unreadable shard manifest" in caplog.text

    def test_incomplete_shard_rejected(self, tmp_path):
        # Manifest claims keys the shard cache does not hold: the
        # shard run died between cache write and manifest write.
        base = str(tmp_path / "r.json")
        spec = _spec()
        path = shard_cache_path(base, 1, 2)
        merge_into_cache(path, {"unrelated": {"v": 1}})
        write_manifest(manifest_path(path),
                       build_manifest(spec, FAST, 1, 2))
        with pytest.raises(CacheError, match="manifest claims"):
            merge_shards(base)


class TestValidateCache:
    def test_complete_cache_is_ok(self, tmp_path):
        base = str(tmp_path / "r.json")
        spec = _spec()
        merge_into_cache(base, _fake_entries(spec, FAST))
        report = validate_cache(base, spec, FAST)
        assert report.ok
        assert report.missing == ()
        assert report.orphan_keys == ()
        assert "OK" in report.render()

    def test_missing_cell_fails(self, tmp_path):
        base = str(tmp_path / "r.json")
        spec = _spec()
        entries = _fake_entries(spec, FAST)
        dropped_key = sorted(entries)[0]
        del entries[dropped_key]
        merge_into_cache(base, entries)
        report = validate_cache(base, spec, FAST)
        assert not report.ok
        assert [key for _cell, key in report.missing] == [dropped_key]
        assert report.present_cells == report.expected_cells - 1
        assert "missing" in report.render()
        assert "FAIL" in report.render()

    def test_orphan_keys_reported_but_not_fatal(self, tmp_path):
        base = str(tmp_path / "r.json")
        spec = _spec()
        entries = _fake_entries(spec, FAST)
        entries["('stale', 'key')"] = {"v": 1}
        merge_into_cache(base, entries)
        report = validate_cache(base, spec, FAST)
        assert report.ok  # orphans alone do not fail (shared caches)
        assert report.orphan_keys == ("('stale', 'key')",)
        # ... unless strict, where verdict and pass/fail must agree.
        assert not report.passes(strict=True)
        assert "OK" in report.render()
        assert "FAIL" in report.render(strict=True)
        assert "fatal under --strict" in report.render(strict=True)

    def test_manifest_fingerprint_mismatch_fails(self, tmp_path):
        base = str(tmp_path / "r.json")
        spec = _spec()
        other = SweepSpec.build(benchmarks=["mcf"],
                                architectures=["e-fam"])
        merge_into_cache(base, _fake_entries(spec, FAST))
        stray = str(tmp_path / "m.json")
        write_manifest(stray, build_manifest(other, FAST, 1, 1))
        report = validate_cache(base, spec, FAST, manifest_paths=[stray])
        assert not report.fingerprint_ok
        assert not report.ok
        assert "MISMATCH" in report.render()

    def test_discovers_sibling_manifests(self, tmp_path):
        base = str(tmp_path / "r.json")
        spec = _spec()
        merge_into_cache(base, _fake_entries(spec, FAST))
        shard = shard_cache_path(base, 1, 2)
        merge_into_cache(shard, {})
        write_manifest(manifest_path(shard),
                       build_manifest(spec, FAST, 1, 2))
        report = validate_cache(base, spec, FAST)
        assert manifest_path(shard) in report.manifest_fingerprints
        assert report.fingerprint_ok
        assert discover_manifests(base) == [manifest_path(shard)]


class TestCanonicalText:
    def test_ignores_telemetry_and_key_order(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        merge_into_cache(a, {"k1": {"v": 1, "telemetry": {"wall_s": 1.0}},
                             "k2": {"v": 2}})
        merge_into_cache(b, {"k2": {"v": 2}})
        merge_into_cache(b, {"k1": {"v": 1, "telemetry": {"wall_s": 5.0}}})
        assert canonical_cache_text(a) == canonical_cache_text(b)

    def test_detects_outcome_difference(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        merge_into_cache(a, {"k1": {"v": 1}})
        merge_into_cache(b, {"k1": {"v": 2}})
        assert canonical_cache_text(a) != canonical_cache_text(b)
