"""Declarative sweeps for the experiment harness.

A *sweep* is a declarative cross product — benchmarks × architectures
× configuration variants — expanded into independent
:class:`~repro.experiments.runner.SweepJob` cells.  :func:`run_sweep`
runs a spec (or one ``--shard I/N`` partition of it) through an
:class:`~repro.experiments.runner.ExperimentRunner`, the harness's one
executor, so a sweep shares the runner's memo, on-disk cache,
supervised worker pool, checkpoints and salvage with the figure
harness.  Results are bit-identical regardless of worker count or
completion order (the determinism suite in ``tests/test_determinism.py``
enforces this).

Typical use::

    spec = SweepSpec.build(benchmarks=["mcf", "canl"],
                           architectures=["i-fam", "deact-n"],
                           axes={"stu-entries": [256, 1024]})
    runner = ExperimentRunner(RunSettings(), cache_path="results.json",
                              jobs=4)
    results = run_sweep(runner, spec)   # {(bench, arch, variant): RunResult}
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.presets import (
    default_config,
    with_acm_bits,
    with_acm_subways,
    with_allocation_policy,
    with_fabric_latency,
    with_nodes,
    with_stu_associativity,
    with_stu_entries,
)
from repro.config.system import SystemConfig
from repro.core.architectures import ARCHITECTURES
from repro.core.results import RunResult
from repro.errors import ConfigError
from repro.experiments.cachefile import merge_into_cache
from repro.experiments.runner import ExperimentRunner, RunSettings, SweepJob
from repro.experiments.shardfile import (
    build_manifest,
    manifest_path,
    write_manifest,
)
from repro.workloads.catalog import benchmark_names

__all__ = ["SWEEP_AXES", "SweepSpec", "SweepProgress", "parse_shard",
           "run_sweep"]

#: Declarative sweep axes: name -> (value parser, config transform).
#: Each mirrors one ``with_*`` preset helper, i.e. one sensitivity
#: dimension of the paper (Figures 13-16 and the allocation ablation).
SWEEP_AXES: Dict[str, Tuple[Callable, Callable]] = {
    "stu-entries": (int, with_stu_entries),
    "stu-associativity": (int, with_stu_associativity),
    "acm-bits": (int, with_acm_bits),
    "acm-subways": (int, with_acm_subways),
    "fabric-latency-ns": (float, with_fabric_latency),
    "nodes": (int, with_nodes),
    "allocation-policy": (str, with_allocation_policy),
}


@dataclass(frozen=True)
class SweepSpec:
    """A fully expanded sweep: which cells of the cube to simulate.

    ``variants`` maps a human-readable label (e.g. ``stu-entries=256``)
    to the :class:`SystemConfig` to run; ``default`` denotes the
    unmodified Table II configuration.
    """

    benchmarks: Tuple[str, ...]
    architectures: Tuple[str, ...]
    variants: Tuple[Tuple[str, SystemConfig], ...]

    @classmethod
    def build(cls, benchmarks: Optional[Sequence[str]] = None,
              architectures: Optional[Sequence[str]] = None,
              axes: Optional[Dict[str, Sequence]] = None,
              base_config: Optional[SystemConfig] = None) -> "SweepSpec":
        """Validate names and expand ``axes`` into config variants.

        ``axes`` maps an axis name from :data:`SWEEP_AXES` to the
        values to sweep; multiple axes expand as a cross product.
        Unknown benchmarks, architectures, or axes raise
        :class:`~repro.errors.ConfigError` before any simulation time
        is spent.
        """
        known_benches = benchmark_names()
        benches = tuple(benchmarks) if benchmarks else tuple(known_benches)
        for bench in benches:
            if bench not in known_benches:
                raise ConfigError(
                    f"unknown benchmark {bench!r}; expected one of "
                    f"{', '.join(known_benches)}")
        archs = tuple(architectures) if architectures \
            else tuple(sorted(ARCHITECTURES))
        for arch in archs:
            if arch not in ARCHITECTURES:
                raise ConfigError(
                    f"unknown architecture {arch!r}; expected one of "
                    f"{', '.join(sorted(ARCHITECTURES))}")
        base = base_config or default_config()
        variants: List[Tuple[str, SystemConfig]] = [("default", base)]
        for axis, values in (axes or {}).items():
            if axis not in SWEEP_AXES:
                raise ConfigError(
                    f"unknown sweep axis {axis!r}; expected one of "
                    f"{', '.join(sorted(SWEEP_AXES))}")
            if not values:
                raise ConfigError(f"sweep axis {axis!r} has no values")
            parse, apply = SWEEP_AXES[axis]
            parsed = []
            for raw in values:
                try:
                    parsed.append(parse(raw))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"bad value {raw!r} for sweep axis {axis!r}: "
                        f"{exc}") from exc
            expanded = []
            for label, config in variants:
                for value in parsed:
                    point = f"{axis}={value}"
                    new_label = point if label == "default" \
                        else f"{label},{point}"
                    expanded.append((new_label, apply(config, value)))
            variants = expanded
        return cls(benchmarks=benches, architectures=archs,
                   variants=tuple(variants))

    def jobs(self, settings: RunSettings) \
            -> List[Tuple[Tuple[str, str, str], SweepJob]]:
        """Expand to ``((benchmark, architecture, variant), job)`` cells
        in deterministic (spec) order."""
        cells = []
        for label, config in self.variants:
            for benchmark in self.benchmarks:
                for architecture in self.architectures:
                    cells.append(((benchmark, architecture, label),
                                  SweepJob(benchmark, architecture, config,
                                           settings)))
        return cells

    def shard(self, index: int, count: int, settings: RunSettings,
              cells: Optional[List[Tuple[Tuple[str, str, str],
                                         SweepJob]]] = None) \
            -> List[Tuple[Tuple[str, str, str], SweepJob]]:
        """Deterministic partition of :meth:`jobs` for cross-host runs.

        Shard ``index`` of ``count`` (1-based, as in ``--shard I/N``)
        takes every ``count``-th cell of the spec-ordered expansion
        starting at cell ``index - 1`` — a stride partition, so the
        shards are **disjoint**, their union is **exhaustive**, and
        the assignment is **stable** for a given spec on every host.
        Striding (rather than contiguous chunks) also spreads each
        benchmark's variants across shards, which balances load when
        benchmarks differ in cost.

        ``cells`` lets a caller that already expanded :meth:`jobs`
        skip re-expanding it (expansion rebuilds every variant
        config).
        """
        if count < 1:
            raise ConfigError(f"shard count must be >= 1, got {count}")
        if not 1 <= index <= count:
            raise ConfigError(
                f"shard index must be in 1..{count}, got {index}")
        if cells is None:
            cells = self.jobs(settings)
        return cells[index - 1::count]

    def __len__(self) -> int:
        return (len(self.benchmarks) * len(self.architectures)
                * len(self.variants))


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``--shard I/N`` argument into ``(index, count)``."""
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError("missing '/'")
        index, count = int(index_text), int(count_text)
    except ValueError as exc:
        raise ConfigError(
            f"--shard expects I/N (e.g. 1/4), got {text!r}") from exc
    if count < 1 or not 1 <= index <= count:
        raise ConfigError(
            f"--shard index must be in 1..count, got {text!r}")
    return index, count


# ----------------------------------------------------------------------
# Progress / ETA reporting
# ----------------------------------------------------------------------
class SweepProgress:
    """Line-per-update progress reporter with a running ETA.

    Writes to ``stream`` (default stderr) so figure/table output on
    stdout stays machine-readable.  The clock starts when the reporter
    is built, so build one as its batch starts: elapsed time and the
    ETA then count the time before the first result too.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._start = time.monotonic()

    def __call__(self, done: int, total: int) -> None:
        elapsed = time.monotonic() - self._start
        eta = (elapsed / done) * (total - done) if done else float("inf")
        self.stream.write(
            f"[sweep] {done}/{total} runs done, "
            f"elapsed {elapsed:.1f}s, eta {eta:.1f}s\n")
        self.stream.flush()


# ----------------------------------------------------------------------
# Running a spec
# ----------------------------------------------------------------------
def run_sweep(runner: ExperimentRunner, spec: SweepSpec,
              shard: Optional[Tuple[int, int]] = None) \
        -> Dict[Tuple[str, str, str], RunResult]:
    """Run every cell of ``spec`` through ``runner`` (recalling cached
    ones), returning ``(benchmark, architecture, variant) -> RunResult``.

    With ``shard=(index, count)`` only that :meth:`SweepSpec.shard`
    partition runs, and — when the runner has a ``cache_path``, which
    for a shard run should be the per-shard cache from
    :func:`~repro.experiments.shardfile.shard_cache_path` — a shard
    manifest (spec fingerprint, covered cell keys, host provenance) is
    written next to the cache so ``deact cache merge``/``validate`` can
    verify the reassembled sweep.

    Cells the runner's supervisor quarantined (keep-going policy) have
    no entry; the structured report is on ``runner.failures``.
    """
    all_cells = spec.jobs(runner.settings)
    cells = all_cells if shard is None else spec.shard(
        shard[0], shard[1], runner.settings, cells=all_cells)
    runner.prewarm([(job.benchmark, job.architecture, job.config)
                    for _cell, job in cells])
    if shard is not None and runner.cache_path is not None:
        # Even a shard with nothing to add (a stride past the cell
        # count) must leave a cache file: the merge discovers shards by
        # their cache files and checks every index 1..N is present.
        merge_into_cache(runner.cache_path, {})
        write_manifest(manifest_path(runner.cache_path),
                       build_manifest(spec, runner.settings, shard[0],
                                      shard[1], cells=all_cells))
    results = {}
    for cell, job in cells:
        result = runner.recall(job.benchmark, job.architecture, job.config)
        if result is not None:
            results[cell] = result
    return results
