"""Core-loop tier measurement: the machine-readable perf trajectory.

One measurement pass runs the same traces through both execution
tiers — ``reference`` (the frozen seed loop) and ``fast`` (the
allocation-free scalar loop) — on fresh systems, checks the tiers
bit-identical, and reports events/s per (benchmark, architecture,
tier).  Both the pytest microbenchmark
(``benchmarks/test_bench_core_loop.py``) and ``deact bench`` consume
this module; ``deact bench`` *appends* the result to the trajectory
file ``BENCH_core_loop.json`` (schema 2, provenance-stamped entries;
see :mod:`repro.experiments.trajectory`) so successive changes leave a
comparable speed trail.

``deact bench`` measures ``lu`` and ``bc`` by default: the
cache-resident catalog workloads where per-event overhead on the hit
path shows first.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.presets import default_config
from repro.core.system import FamSystem
from repro.experiments.runner import (
    RunSettings,
    _result_to_dict,
    build_traces,
)

__all__ = ["TIERS", "measure_core_loop", "write_bench_json",
           "default_json_path"]

#: Execution tiers measured, slowest first.
TIERS = ("reference", "fast")

_SCHEMA = 1


#: Wall-clock floor per measured cell.  A best-of-3 estimate is fine
#: for a 200 ms reference wall but hopeless for a 4 ms wall on a
#: shared host, where a single scheduler preemption is a 50% error.
#: Short-wall cells therefore keep repeating past ``repeats`` (up to
#: :data:`MAX_REPEATS`) until this much total measurement has
#: accumulated, equalizing noise rejection across cell scales.
MIN_SAMPLE_S = 0.15

#: Repetition cap for the :data:`MIN_SAMPLE_S` top-up, bounding bench
#: runtime on hosts where even short cells run slow.
MAX_REPEATS = 10


def _measure_cell(runs: "Dict[str, Callable]", repeats: int
                  ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Interleaved best-of-N walls for every tier of one cell.

    Tiers are timed in rotating rounds rather than back-to-back
    blocks: tier-over-tier speedups are *ratios*, and on a shared
    host a sustained slow stretch (noisy neighbor, frequency dip)
    that lands entirely inside one tier's block skews the ratio no
    matter how many repeats that block took.  Rotation puts each
    tier's samples in adjacent time windows, so host-condition drift
    cancels out of the ratio.  A tier leaves the rotation once it has
    both ``repeats`` samples and :data:`MIN_SAMPLE_S` of accumulated
    measurement (or hits :data:`MAX_REPEATS`).
    """
    best: Dict[str, float] = {}
    result: Dict[str, object] = {}
    total = {tier: 0.0 for tier in runs}
    count = {tier: 0 for tier in runs}

    def needs(tier: str) -> bool:
        return count[tier] < repeats or (total[tier] < MIN_SAMPLE_S
                                         and count[tier] < MAX_REPEATS)

    # One collect before any timed sample, then the collector stays
    # off for the whole cell: the reference tier allocates millions
    # of boxed events, and with the collector live its collection
    # debt lands in whichever tier's sample runs next.  Collecting
    # *per sample* is no better — a full collection returns arenas to
    # the OS, so the following sample pays thousands of page re-faults
    # inside its timed window, a cost that lands hardest on the
    # shortest walls.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        while any(needs(tier) for tier in runs):
            for tier, run in runs.items():
                if not needs(tier):
                    continue
                start = time.perf_counter()
                result[tier] = run()
                elapsed = time.perf_counter() - start
                total[tier] += elapsed
                count[tier] += 1
                if tier not in best or elapsed < best[tier]:
                    best[tier] = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, result


def measure_core_loop(settings: RunSettings,
                      benchmarks: Sequence[str],
                      architectures: Sequence[str],
                      repeats: int = 3,
                      tiers: Sequence[str] = TIERS) -> Dict:
    """Measure every (benchmark, architecture, tier) cell.

    Returns the serializable payload: per-cell rows (wall seconds,
    events/s, bit-identity with the reference tier) plus per-benchmark
    aggregates with the tier-over-tier speedup.
    """
    config = default_config()
    seed = settings.seed * 31 + 5
    rows: List[Dict] = []
    for benchmark in benchmarks:
        traces = build_traces(benchmark, 1, settings)
        for architecture in architectures:
            def run(tier, architecture=architecture,
                    benchmark=benchmark, traces=traces):
                system = FamSystem(config, architecture, seed=seed)
                return system.run(traces, benchmark=benchmark, mode=tier)

            walls, results = _measure_cell(
                {tier: (lambda tier=tier: run(tier)) for tier in tiers},
                repeats)
            baseline: Optional[dict] = None
            for tier in tiers:
                serialized = _result_to_dict(results[tier])
                if baseline is None:
                    baseline = serialized
                rows.append({
                    "benchmark": benchmark,
                    "architecture": architecture,
                    "tier": tier,
                    "wall_s": walls[tier],
                    "events_per_sec": settings.n_events / walls[tier],
                    "identical_to_first_tier": serialized == baseline,
                })
    return {
        "schema": _SCHEMA,
        "settings": {
            "n_events": settings.n_events,
            "footprint_scale": settings.footprint_scale,
            "seed": settings.seed,
            "repeats": repeats,
            "min_sample_s": MIN_SAMPLE_S,
            "max_repeats": MAX_REPEATS,
        },
        "benchmarks": list(benchmarks),
        "architectures": list(architectures),
        "tiers": list(tiers),
        "rows": rows,
        "aggregates": _aggregate(rows, benchmarks, tiers, settings),
    }


def _aggregate(rows: Sequence[Dict], benchmarks: Sequence[str],
               tiers: Sequence[str], settings: RunSettings) -> Dict:
    aggregates: Dict[str, Dict] = {}
    for benchmark in benchmarks:
        per_tier: Dict[str, float] = {}
        for tier in tiers:
            walls = [row["wall_s"] for row in rows
                     if row["benchmark"] == benchmark
                     and row["tier"] == tier]
            if not walls:
                continue
            total = sum(walls)
            per_tier[tier] = total
        entry: Dict[str, object] = {
            "wall_s": per_tier,
            "events_per_sec": {
                tier: len([r for r in rows
                           if r["benchmark"] == benchmark
                           and r["tier"] == tier]) * settings.n_events
                / total
                for tier, total in per_tier.items()
            },
        }
        if "fast" in per_tier and "reference" in per_tier:
            entry["fast_speedup_vs_reference"] = (
                per_tier["reference"] / per_tier["fast"])
        aggregates[benchmark] = entry
    return aggregates


def default_json_path() -> str:
    """Where the perf trajectory lands: ``REPRO_BENCH_JSON``, else
    ``BENCH_core_loop.json`` at the enclosing git toplevel, else cwd.

    Deriving the root from this module's ``__file__`` (the old
    behavior) pointed into site-packages for an installed package —
    the trajectory of record lives with the *checkout* being
    measured, not with wherever the library happens to be installed.
    """
    override = os.environ.get("REPRO_BENCH_JSON")
    if override:
        return override
    from repro.experiments.provenance import git_toplevel

    root = git_toplevel() or os.getcwd()
    return os.path.join(root, "BENCH_core_loop.json")


def write_bench_json(payload: Dict, path: Optional[str] = None) -> str:
    """Append a :func:`measure_core_loop` payload to the trajectory.

    The trajectory at ``path`` (schema 2, auto-upgrading a committed
    schema-1 file) gains one provenance-stamped entry; the write is
    atomic (mkstemp + rename via the shared cache helper), so a crash
    mid-write can never leave a truncated history.  Returns the path.
    """
    from repro.experiments.trajectory import append_entry

    path = path or default_json_path()
    append_entry(path, payload)
    return path


def render_census(payload: Dict) -> str:
    """Human-readable census of a measurement payload."""
    lines = [f"core-loop tiers ({payload['settings']['n_events']} events, "
             f"best of >={payload['settings']['repeats']}):"]
    cells: Dict[Tuple[str, str], Dict[str, Dict]] = {}
    for row in payload["rows"]:
        cells.setdefault((row["benchmark"], row["architecture"]),
                         {})[row["tier"]] = row
    for (benchmark, architecture), tiers in cells.items():
        parts = [f"  {benchmark:<8} {architecture:<8}"]
        for tier, row in tiers.items():
            parts.append(f"{tier}={row['events_per_sec']:>10,.0f}/s")
        identical = all(row["identical_to_first_tier"]
                        for row in tiers.values())
        parts.append(f"identical={identical}")
        lines.append(" ".join(parts))
    for benchmark, aggregate in payload["aggregates"].items():
        notes = []
        if "fast_speedup_vs_reference" in aggregate:
            notes.append(f"fast/ref="
                         f"{aggregate['fast_speedup_vs_reference']:.2f}x")
        lines.append(f"  {benchmark}: {'  '.join(notes)}")
    return "\n".join(lines)
