"""Core per-event loop microbenchmark: the two execution tiers.

Measures the per-event simulation core by running the same traces
through both tiers on fresh systems each time:

* ``reference`` — the frozen seed loop (:mod:`repro.core.refpath`);
* ``fast`` — the allocation-free scalar loop.

Workloads: ``lu`` and ``bc`` from the catalog, the cache-resident
workloads where per-event overhead shows first.  Every cell is first
checked bit-identical across tiers — a fast-but-wrong path must not
win the benchmark.

The measurement pass is shared with ``deact bench``
(:mod:`repro.experiments.bench`).  Its census goes to a temporary
trajectory file, or to ``REPRO_BENCH_JSON`` when that is set: running
the suite never writes a tracked file.  Recording a trajectory point
is ``deact bench``'s job, and regression gating against the committed
baseline is ``deact bench compare --against-baseline`` (the CI step).

Smoke mode (``REPRO_BENCH_CORE_SMOKE=1``, the CI microbenchmark step)
shrinks the trace and skips the wall-clock ratio gates — sub-100ms
runs on shared runners are too jittery for strict per-run floors.
"""

import os

import pytest

from repro.config.presets import default_config
from repro.core.system import FamSystem
from repro.experiments.bench import (
    measure_core_loop,
    render_census,
    write_bench_json,
)
from repro.experiments.runner import RunSettings, build_traces

SMOKE = os.environ.get("REPRO_BENCH_CORE_SMOKE", "") == "1"
SETTINGS = RunSettings(n_events=4000 if SMOKE else 16000,
                       footprint_scale=0.06, seed=13)
ARCHS = ("e-fam", "i-fam", "deact-w", "deact-n")
HEADLINE_BENCH = "lu"
SECONDARY_BENCH = "bc"
#: Repeat floor per cell: the harness rotates tiers and tops up
#: short-wall cells to a fixed sample budget (``bench.MIN_SAMPLE_S``),
#: so 3 is the floor the long reference walls settle at.
REPEATS = 3
#: Acceptance gate, tolerance-adjusted for host contention: quiet
#: hosts measure the scalar fast loop at >= 2x the seed path on ``lu``.
MIN_FAST_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def core_loop_measurement(tmp_path_factory):
    """One two-tier measurement pass shared by the assertions below,
    written to a temporary trajectory file (or wherever
    ``REPRO_BENCH_JSON`` points) so the suite leaves the committed
    baseline untouched."""
    payload = measure_core_loop(
        SETTINGS, (HEADLINE_BENCH, SECONDARY_BENCH), ARCHS,
        repeats=REPEATS)
    payload["smoke"] = SMOKE
    out = os.environ.get("REPRO_BENCH_JSON") or str(
        tmp_path_factory.mktemp("bench") / "BENCH_core_loop.json")
    path = write_bench_json(payload, out)
    # Always print the census — this is what the CI smoke step surfaces.
    print()
    print(render_census(payload))
    print(f"  -> {path}")
    return payload


def test_all_tiers_bit_identical(core_loop_measurement):
    # Guard: a fast-but-wrong loop must not win the benchmark.
    assert all(row["identical_to_first_tier"]
               for row in core_loop_measurement["rows"])


def test_bench_json_schema(core_loop_measurement):
    payload = core_loop_measurement
    tiers = {row["tier"] for row in payload["rows"]}
    assert tiers == {"reference", "fast"}
    for bench in (HEADLINE_BENCH, SECONDARY_BENCH):
        aggregate = payload["aggregates"][bench]
        assert "fast_speedup_vs_reference" in aggregate
        assert all(rate > 0
                   for rate in aggregate["events_per_sec"].values())


def test_core_loop_speedup(core_loop_measurement):
    """PR-2 acceptance: scalar fast loop >= 2x the seed on ``lu``."""
    if SMOKE:
        pytest.skip("ratio gate needs full-size traces on a quiet "
                    "machine; smoke mode prints the census only")
    aggregate = core_loop_measurement["aggregates"][HEADLINE_BENCH]
    assert aggregate["fast_speedup_vs_reference"] >= MIN_FAST_SPEEDUP, (
        f"core loop fast-vs-seed speedup "
        f"{aggregate['fast_speedup_vs_reference']:.2f}x on "
        f"{HEADLINE_BENCH} fell below {MIN_FAST_SPEEDUP}x")


def test_secondary_workload_speedup(core_loop_measurement):
    """The graph-reuse workload must also clearly beat the seed path
    (floor below the headline gate: more FAM-path dilution)."""
    if SMOKE:
        pytest.skip("ratio gate needs full-size traces on a quiet "
                    "machine; smoke mode prints the census only")
    aggregate = core_loop_measurement["aggregates"][SECONDARY_BENCH]
    assert aggregate["fast_speedup_vs_reference"] >= 1.5


def test_bench_json_appends_trajectory_entry(core_loop_measurement,
                                             tmp_path):
    """Two writes to one path append two provenance-stamped entries —
    the trajectory is a time series, never an overwrite."""
    from repro.experiments.bench import write_bench_json
    from repro.experiments.trajectory import load_trajectory

    path = str(tmp_path / "trajectory.json")
    write_bench_json(core_loop_measurement, path)
    write_bench_json(core_loop_measurement, path)
    trajectory = load_trajectory(path)
    assert len(trajectory["entries"]) == 2
    for entry in trajectory["entries"]:
        assert entry["provenance"]["hostname"]
        assert entry["settings_fingerprint"]


def test_bench_core_loop_fast_path(benchmark):
    """pytest-benchmark record of the production (fast) path."""
    traces = build_traces(HEADLINE_BENCH, 1, SETTINGS)
    config = default_config()

    def run():
        return FamSystem(config, "deact-n",
                         seed=SETTINGS.seed * 31 + 5).run(
            traces, benchmark=HEADLINE_BENCH)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.nodes[0].memory_accesses == SETTINGS.n_events
