"""Command-line entry point for the experiment harness.

Examples::

    python -m repro.experiments --figure 12
    python -m repro.experiments --figure 3 --figure 4 --events 60000
    python -m repro.experiments --all --cache results.json --jobs 4
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigError
from repro.experiments.figures import ALL_FIGURES, figure_matrix
from repro.experiments.runner import (
    ExperimentRunner,
    RunSettings,
    require_jobs,
)
from repro.experiments.sweep import SweepProgress
from repro.experiments.tables import table1, table2, table3, table3_matrix

#: Figures whose sweep matrices get expensive; the CLI trims their
#: benchmark set to the paper's sensitivity groups automatically.
_SWEEP_FIGURES = {"13", "13a", "14", "14s", "15"}
_SWEEP_BENCHES = ["mcf", "cactus", "astar", "frqm", "canl", "bc", "cc",
                  "ccsv", "sssp", "pf", "dc"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("--figure", action="append", default=[],
                        choices=sorted(ALL_FIGURES) + ["t1", "t2", "t3"],
                        help="figure/table id (repeatable)")
    parser.add_argument("--all", action="store_true",
                        help="run every table and figure")
    parser.add_argument("--events", type=int, default=150_000,
                        help="trace events per run (default 150000)")
    parser.add_argument("--footprint-scale", type=float, default=0.12,
                        help="benchmark footprint scale (default 0.12)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cache", default=None,
                        help="JSON file memoizing run results")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the run matrices "
                             "(default 1 = serial)")
    args = parser.parse_args(argv)
    try:
        require_jobs(args.jobs, flag="--jobs")
    except ConfigError as exc:
        parser.error(str(exc))

    wanted = list(args.figure)
    if args.all:
        wanted = ["t1", "t2", "t3"] + sorted(ALL_FIGURES)
    if not wanted:
        parser.error("pick --figure IDs or --all")

    try:
        settings = RunSettings(n_events=args.events,
                               footprint_scale=args.footprint_scale,
                               seed=args.seed)
    except ConfigError as exc:
        parser.error(str(exc))
    runner = ExperimentRunner(settings, cache_path=args.cache,
                              jobs=args.jobs)

    if args.jobs > 1:
        # Batch every wanted run matrix through the worker pool first;
        # the figure builders below then assemble rows from the memo
        # without executing anything new.
        triples = []
        for item in wanted:
            if item == "t3":
                triples.extend(table3_matrix())
            elif item in ALL_FIGURES:
                benches = _SWEEP_BENCHES if item in _SWEEP_FIGURES else None
                triples.extend(figure_matrix(item, benches))
        runner.prewarm(triples, progress=SweepProgress())

    for item in wanted:
        start = time.time()
        if item == "t1":
            result = table1()
        elif item == "t2":
            result = table2()
        elif item == "t3":
            result = table3(runner)
        else:
            builder = ALL_FIGURES[item]
            benches = _SWEEP_BENCHES if item in _SWEEP_FIGURES else None
            result = builder(runner, benchmarks=benches)
        print(result.render())
        print(f"[{item} done in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
