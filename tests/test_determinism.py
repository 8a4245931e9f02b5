"""Determinism and serialization-round-trip guarantees.

Parallel sweeps are only trustworthy if they are bit-identical to
serial execution, which in turn requires (a) every run to be a pure
function of its :class:`SweepJob` and (b) the result <-> dict round
trip to be lossless.  This suite pins both down, comparing full serialized
result dicts — not just headline metrics — so a drifting counter
anywhere in the system fails loudly.
"""

import random

import pytest

from repro.config.presets import default_config, with_nodes
from repro.core.results import NodeMetrics, RunResult
from repro.experiments.runner import (
    ExperimentRunner,
    RunSettings,
    SweepJob,
    _result_from_dict,
    _result_to_dict,
    execute_job,
)
from repro.experiments.shardfile import (
    canonical_cache_text,
    load_manifest,
    manifest_path,
    merge_shards,
    shard_cache_path,
    spec_fingerprint,
    validate_cache,
)
from repro.experiments.sweep import SweepSpec, run_sweep

FAST = RunSettings(n_events=1500, footprint_scale=0.01, seed=3)

#: The Figure 3 matrix (trimmed): the slowdown figure's benchmark x
#: architecture grid, which the acceptance criteria single out.
FIG3_BENCHES = ["mcf", "canl"]
FIG3_ARCHS = ["e-fam", "i-fam"]


def _sweep_dicts(jobs: int, cache_path=None) -> dict:
    runner = ExperimentRunner(FAST, cache_path=cache_path, jobs=jobs)
    spec = SweepSpec.build(benchmarks=FIG3_BENCHES,
                           architectures=FIG3_ARCHS)
    return {cell: _result_to_dict(result)
            for cell, result in run_sweep(runner, spec).items()}


class TestRunDeterminism:
    def test_serial_reruns_are_identical(self):
        first = ExperimentRunner(FAST).run("canl", "i-fam")
        second = ExperimentRunner(FAST).run("canl", "i-fam")
        assert _result_to_dict(first) == _result_to_dict(second)

    def test_serial_runner_matches_worker_entry_point(self):
        # The memoizing runner and the multiprocessing worker must
        # produce the same bits for the same job.  The worker payload
        # additionally carries wall-clock telemetry — measurement
        # metadata, not part of the simulated outcome — which is
        # stripped before comparing.
        runner_dict = _result_to_dict(
            ExperimentRunner(FAST).run("mcf", "deact-n"))
        worker_dict = execute_job(
            SweepJob("mcf", "deact-n", default_config(), FAST))
        telemetry = worker_dict.pop("telemetry")
        assert telemetry["events"] == FAST.n_events
        assert telemetry["wall_s"] > 0
        assert runner_dict == worker_dict

    def test_multi_node_runs_are_deterministic(self):
        config = with_nodes(default_config(), 2)
        first = ExperimentRunner(FAST).run("dc", "deact-n", config)
        second = ExperimentRunner(FAST).run("dc", "deact-n", config)
        assert _result_to_dict(first) == _result_to_dict(second)

    def test_sweep_jobs1_vs_jobs4_identical(self):
        serial = _sweep_dicts(jobs=1)
        parallel = _sweep_dicts(jobs=4)
        assert serial == parallel

    def test_parallel_sweep_cache_replays_identically(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        fresh = _sweep_dicts(jobs=4, cache_path=cache)
        recalled = _sweep_dicts(jobs=1, cache_path=cache)
        assert fresh == recalled

    def test_different_seeds_differ(self):
        # Guards against the suite passing vacuously (e.g. a runner
        # that ignores its settings would sail through the tests
        # above).
        base = ExperimentRunner(FAST).run("mcf", "i-fam")
        reseeded = ExperimentRunner(
            RunSettings(n_events=FAST.n_events,
                        footprint_scale=FAST.footprint_scale,
                        seed=FAST.seed + 1)).run("mcf", "i-fam")
        assert _result_to_dict(base) != _result_to_dict(reseeded)


# ----------------------------------------------------------------------
# Shard determinism: N shard runs reassemble the unsharded sweep
# ----------------------------------------------------------------------
class TestShardDeterminism:
    """The acceptance property of cross-host sharding: running every
    shard (on any host, in any order), merging, and validating yields
    a cache whose simulated outcome is bit-identical to the cache the
    unsharded sweep writes.  ``canonical_cache_text`` is the
    comparison — sorted keys, telemetry (per-execution wall-clock
    metadata) excluded, exactly as every other determinism test here
    excludes it."""

    def _spec(self) -> SweepSpec:
        return SweepSpec.build(benchmarks=FIG3_BENCHES,
                               architectures=FIG3_ARCHS)

    @pytest.mark.parametrize("count", [2, 3])
    def test_shard_union_bit_identical_to_unsharded(self, tmp_path, count):
        spec = self._spec()
        unsharded = str(tmp_path / "full.json")
        run_sweep(ExperimentRunner(FAST, cache_path=unsharded, jobs=1), spec)

        base = str(tmp_path / "merged.json")
        for index in range(1, count + 1):
            shard_path = shard_cache_path(base, index, count)
            run_sweep(ExperimentRunner(FAST, cache_path=shard_path, jobs=1),
                      spec, shard=(index, count))
            assert load_cache_nonempty(shard_path)
            manifest = load_manifest(manifest_path(shard_path))
            assert manifest.fingerprint == spec_fingerprint(spec, FAST)

        merged, manifests, _paths = merge_shards(base, strict=True)
        assert len(manifests) == count
        report = validate_cache(base, spec, FAST)
        assert report.ok, report.render()
        assert canonical_cache_text(base) == canonical_cache_text(unsharded)

    def test_sharded_parallel_matches_unsharded_serial(self, tmp_path):
        # Worker-pool execution inside a shard must not change the
        # reassembled outcome either.
        spec = self._spec()
        unsharded = str(tmp_path / "full.json")
        run_sweep(ExperimentRunner(FAST, cache_path=unsharded, jobs=1), spec)
        base = str(tmp_path / "merged.json")
        for index in (1, 2):
            runner = ExperimentRunner(
                FAST, cache_path=shard_cache_path(base, index, 2), jobs=2)
            run_sweep(runner, spec, shard=(index, 2))
        merge_shards(base, strict=True)
        assert canonical_cache_text(base) == canonical_cache_text(unsharded)

    def test_shard_results_match_unsharded_cells(self):
        # In-memory view: each shard returns exactly its partition's
        # cells, with the same serialized results the full run yields.
        spec = self._spec()
        full = {cell: _result_to_dict(result) for cell, result
                in run_sweep(ExperimentRunner(FAST, jobs=1), spec).items()}
        reassembled = {}
        for index in (1, 2):
            part = run_sweep(ExperimentRunner(FAST, jobs=1), spec,
                             shard=(index, 2))
            assert not set(part) & set(reassembled)  # disjoint
            reassembled.update({cell: _result_to_dict(result)
                                for cell, result in part.items()})
        assert reassembled == full


def load_cache_nonempty(path: str) -> bool:
    from repro.experiments.cachefile import load_cache

    return bool(load_cache(path))


# ----------------------------------------------------------------------
# Serialization round trip
# ----------------------------------------------------------------------
def _random_result(rng: random.Random) -> RunResult:
    nodes = [
        NodeMetrics(
            node_id=node_id,
            instructions=rng.randrange(1, 10**9),
            memory_accesses=rng.randrange(10**6),
            cycles=rng.random() * 10**8,
            runtime_ns=rng.random() * 10**9,
            llc_misses=rng.randrange(10**5),
            fam_data_accesses=rng.randrange(10**5),
            tlb_hit_rate=rng.random(),
            node_walks=rng.randrange(10**4),
            translation_hit_rate=rng.random(),
            acm_hit_rate=rng.random(),
            counters={f"c{i}": rng.random() for i in range(rng.randrange(4))},
        )
        for node_id in range(rng.randrange(1, 5))
    ]
    return RunResult(
        architecture=rng.choice(["e-fam", "i-fam", "deact-w", "deact-n"]),
        benchmark=rng.choice(["mcf", "canl", "dc"]),
        nodes=nodes,
        fam_counters={f"f{i}": rng.random() for i in range(3)},
        fabric_counters={f"n{i}": float(rng.randrange(100))
                         for i in range(2)},
    )


class TestResultRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_results_survive_round_trip(self, seed):
        result = _random_result(random.Random(seed))
        rebuilt = _result_from_dict(_result_to_dict(result))
        assert _result_to_dict(rebuilt) == _result_to_dict(result)
        assert rebuilt == result  # dataclass equality, field by field

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_through_json_text(self, seed):
        import json

        result = _random_result(random.Random(100 + seed))
        rebuilt = _result_from_dict(
            json.loads(json.dumps(_result_to_dict(result))))
        assert rebuilt == result

    def test_real_run_survives_round_trip(self):
        result = ExperimentRunner(FAST).run("mcf", "e-fam")
        assert _result_from_dict(_result_to_dict(result)) == result

    def test_missing_counter_blocks_default_empty(self):
        data = _result_to_dict(_random_result(random.Random(42)))
        data.pop("fam_counters")
        data.pop("fabric_counters")
        rebuilt = _result_from_dict(data)
        assert rebuilt.fam_counters == {}
        assert rebuilt.fabric_counters == {}
