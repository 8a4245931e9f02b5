"""Command-line entry point for the experiment harness.

Each figure prints as a table, followed by the paper's quoted values
next to the measured ones where the text states them.  After the
figures come the verdicts of the paper's directional claims
(:mod:`repro.experiments.validation`) on the figures just built, and
the harness telemetry over every run they used.

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
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import render_paper_values, render_telemetry
from repro.experiments.runner import (
    ExperimentRunner,
    RunSettings,
    require_jobs,
)
from repro.experiments.sweep import SweepProgress
from repro.experiments.tables import TABLE3, table1, table2, table3
from repro.experiments.validation import check_figure


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
    # Checkpoints as often as ``deact sweep`` does by default, so even a
    # killed regeneration keeps most of its finished runs.
    runner = ExperimentRunner(settings, cache_path=args.cache,
                              jobs=args.jobs, progress=SweepProgress(),
                              checkpoint_every=25)

    # Run the cells of every wanted spec in one batch first; building
    # each spec below then reads them from the memo without executing
    # anything new.
    specs = {**ALL_FIGURES, "t3": TABLE3}
    runner.prewarm([cell for item in wanted if item in specs
                    for cell in specs[item].cells()])

    outcomes = []
    for item in wanted:
        start = time.time()
        if item == "t1":
            result = table1()
        elif item == "t2":
            result = table2()
        elif item == "t3":
            result = table3(runner)
        else:
            result = ALL_FIGURES[item].build(runner)
        print(result.render())
        paper = render_paper_values(result)
        if paper:
            print(paper)
        outcomes.extend(check_figure(result))
        print(f"[{item} done in {time.time() - start:.1f}s]\n")

    if outcomes:
        print("paper claims:")
        for outcome in outcomes:
            verdict = "PASS" if outcome.passed else "FAIL"
            detail = f" ({outcome.detail})" if outcome.detail else ""
            print(f"  {verdict} {outcome.claim.figure_id}: "
                  f"{outcome.claim.description}{detail}")
    print(render_telemetry(runner.telemetry_summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
