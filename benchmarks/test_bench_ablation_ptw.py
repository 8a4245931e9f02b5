"""Ablation bench: STU walk caching (the paper's §III-B argument).

The paper applies DeACT only to the PTE level and lets the STU walk
the whole system table on misses ("four memory accesses during PTW").
This benchmark compares a cacheless STU walker against a Bhargava-style
32-entry walk cache: walk caching shortens I-FAM's miss penalty, so
DeACT's speedup over I-FAM must be at least as large without it.
"""

from dataclasses import replace

from conftest import BENCH_SETTINGS, run_once

from repro.config.presets import default_config
from repro.experiments.runner import ExperimentRunner


def _deact_speedup(walk_cache_entries: int) -> float:
    runner = ExperimentRunner(BENCH_SETTINGS)
    config = default_config()
    config = config.replace(
        stu=replace(config.stu, walk_cache_entries=walk_cache_entries))
    ifam = runner.run("canl", "i-fam", config)
    deact = runner.run("canl", "deact-n", config)
    return deact.speedup_over(ifam)


def test_bench_ptw_ablation(benchmark):
    speedups = run_once(benchmark, lambda: {
        "no_walk_cache": _deact_speedup(0),
        "walk_cache_32": _deact_speedup(32),
    })
    assert speedups["no_walk_cache"] >= \
        speedups["walk_cache_32"] - 0.05
    assert speedups["no_walk_cache"] > 0.5
