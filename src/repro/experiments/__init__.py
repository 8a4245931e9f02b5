"""Experiment harness: every table and figure of the evaluation.

* :mod:`repro.experiments.runner` — the one executor: runs
  (benchmark, architecture, config) combinations through the
  supervisor, memoized in process and in an optional on-disk cache so
  figures sharing baselines do not repeat work.
* :mod:`repro.experiments.tables` — Tables I-III; Table III is a
  figure spec over the E-FAM runs.
* :mod:`repro.experiments.figures` — Figures 3, 4, 9-16 plus the
  STU-associativity study the paper reports in text, each one
  :class:`~repro.experiments.figures.FigureSpec`: the cells it reads,
  and a ``build`` that turns them into a
  :class:`~repro.experiments.report.FigureResult` with paper-vs-
  measured rows.
* :mod:`repro.experiments.sweep` — declarative sweep specs, run (or
  sharded) through the runner by :func:`run_sweep`.
* :mod:`repro.experiments.supervisor` — the worker pool with retries,
  timeouts and quarantine; one job at a time in-process for
  ``jobs=1``.
* :mod:`repro.experiments.cachefile` — lock-safe, conflict-aware
  access to the shared on-disk JSON result cache.
* :mod:`repro.experiments.shardfile` — cross-host sweep sharding:
  per-shard caches and manifests, fingerprinted merge, and cache
  validation against a spec.
* :mod:`repro.experiments.report` — result containers and ASCII
  rendering (the library has no plotting dependency by design).

Run everything from the command line::

    python -m repro.experiments --figure 12
    python -m repro.experiments --all
"""

from repro.experiments.report import FigureResult, Row
from repro.experiments.runner import ExperimentRunner, RunSettings, SweepJob, \
    execute_job
from repro.experiments.shardfile import (
    ShardManifest,
    ValidationReport,
    merge_shards,
    shard_cache_path,
    spec_fingerprint,
    validate_cache,
)
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.experiments import figures, tables

__all__ = [
    "ExperimentRunner",
    "RunSettings",
    "SweepJob",
    "SweepSpec",
    "ShardManifest",
    "ValidationReport",
    "execute_job",
    "merge_shards",
    "run_sweep",
    "shard_cache_path",
    "spec_fingerprint",
    "validate_cache",
    "FigureResult",
    "Row",
    "figures",
    "tables",
]
