"""The ``deact`` command-line interface.

Six subcommands:

* ``deact run`` — run one benchmark on one architecture and print the
  headline metrics.
* ``deact compare`` — run a benchmark on every architecture and print
  a normalized comparison (a one-row Figure 12).
* ``deact sweep`` — expand a (benchmark × architecture × axis) cross
  product and run it on a worker pool, merging results into the
  shared JSON cache; ``--shard I/N`` runs one cross-host partition
  into a per-shard cache plus manifest.
* ``deact cache`` — ``merge`` shard caches into the canonical cache
  (conflict-aware), ``validate`` a cache against a sweep spec, and
  report coverage ``status``.
* ``deact profile`` — cProfile one job on the production path and
  print the hottest functions (hot-path triage without ad-hoc
  scripts; host speed itself is judged by ``perfbench/``).
* ``deact figures`` — delegate to the experiment harness
  (``python -m repro.experiments``).

Examples::

    deact run --benchmark mcf --arch deact-n
    deact compare --benchmark canl --events 40000 --jobs 4
    deact sweep --benchmark mcf --benchmark canl --arch i-fam \\
        --arch deact-n --axis stu-entries=256,1024 --jobs 4
    deact sweep --benchmark mcf --cache results.json --shard 1/2
    deact cache merge --cache results.json
    deact cache validate --cache results.json --benchmark mcf
    deact profile --benchmark lu --arch deact-n --limit 15
    deact figures --figure 12 --jobs 4
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.config.presets import default_config
from repro.core.architectures import ARCHITECTURES
from repro.errors import ConfigError
from repro.workloads.catalog import benchmark_names

__all__ = ["main"]


def _add_trace_args(parser: argparse.ArgumentParser,
                    benchmark_required: bool = True) -> None:
    parser.add_argument("--benchmark", required=benchmark_required,
                        choices=benchmark_names())
    parser.add_argument("--events", type=int, default=100_000,
                        help="trace events (default 100000)")
    parser.add_argument("--footprint-scale", type=float, default=0.12)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--nodes", type=int, default=1)


def _settings(args, parser: argparse.ArgumentParser):
    """RunSettings from the trace-scale flags; bad values exit 2."""
    from repro.experiments.runner import RunSettings

    try:
        return RunSettings(n_events=args.events,
                           footprint_scale=args.footprint_scale,
                           seed=args.seed)
    except ConfigError as exc:
        parser.error(str(exc))


def _config(args, parser: argparse.ArgumentParser):
    """The Table II config for ``--nodes``; bad values exit 2."""
    try:
        return default_config(nodes=args.nodes)
    except ConfigError as exc:
        parser.error(str(exc))


def _add_sweep_spec_args(parser: argparse.ArgumentParser) -> None:
    """The flags that define a sweep spec + trace-scale settings.

    Shared verbatim by ``deact sweep`` and ``deact cache
    validate``/``status`` so a cache can be validated with exactly the
    flags that produced it.
    """
    parser.add_argument("--benchmark", action="append", default=[],
                        choices=benchmark_names(),
                        help="benchmark (repeatable; default all)")
    parser.add_argument("--arch", action="append", default=[],
                        choices=sorted(ARCHITECTURES),
                        help="architecture (repeatable; default all)")
    parser.add_argument("--axis", action="append", default=[],
                        metavar="NAME=V1[,V2,...]",
                        help="config axis to sweep (repeatable); "
                             "e.g. stu-entries=256,1024")
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--footprint-scale", type=float, default=0.12)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--nodes", type=int, default=1)


def _spec_from_args(args, parser: argparse.ArgumentParser):
    """Build (SweepSpec, RunSettings) from :func:`_add_sweep_spec_args`
    flags, converting config errors to argparse errors."""
    from repro.experiments.sweep import SweepSpec

    axes = _parse_axes(parser, args.axis)
    settings = _settings(args, parser)
    try:
        spec = SweepSpec.build(
            benchmarks=args.benchmark or None,
            architectures=args.arch or None,
            axes=axes or None,
            base_config=default_config(nodes=args.nodes))
    except ConfigError as exc:
        parser.error(str(exc))
    return spec, settings


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    # All commands (run / compare / sweep / figures) execute through
    # the harness runner, so their numbers agree for equal settings.
    from repro.experiments.runner import ExperimentRunner

    config = _config(args, parser)
    runner = ExperimentRunner(_settings(args, parser))
    result = runner.run(args.benchmark, args.arch, config)
    print(f"benchmark           : {result.benchmark}")
    print(f"architecture        : {result.architecture}")
    print(f"IPC                 : {result.ipc:.4f}")
    print(f"runtime             : {result.runtime_ns / 1e6:.3f} ms")
    print(f"measured MPKI       : {result.mpki:.1f}")
    print(f"AT share at FAM     : {100 * result.fam_at_fraction:.2f} %")
    print(f"translation hit rate: {100 * result.translation_hit_rate:.2f} %")
    print(f"ACM hit rate        : {100 * result.acm_hit_rate:.2f} %")
    if result.telemetry:
        telemetry = result.telemetry
        print(f"harness wall time   : {telemetry['wall_s'] * 1e3:.1f} ms "
              f"({telemetry['events_per_sec']:,.0f} events/s, "
              f"{telemetry.get('probes_per_event', 0.0):.2f} "
              f"tag probes/event)")
    return 0


def _cmd_compare(args, parser: argparse.ArgumentParser) -> int:
    # One code path for any worker count: route through the harness
    # runner so ``--jobs N`` output is bit-identical to ``--jobs 1``.
    from repro.experiments.runner import ExperimentRunner

    config = _config(args, parser)
    runner = ExperimentRunner(_settings(args, parser), jobs=args.jobs)
    matrix = runner.run_matrix([args.benchmark], list(ARCHITECTURES),
                               config)
    results = {arch: matrix[(args.benchmark, arch)]
               for arch in ARCHITECTURES}
    efam = results["e-fam"]
    print(f"{args.benchmark}: performance normalized to E-FAM")
    for arch, result in results.items():
        norm = result.normalized_performance(efam)
        speedup = result.speedup_over(results["i-fam"])
        print(f"  {arch:<8} norm={norm:6.3f}  vs I-FAM={speedup:6.3f}x  "
              f"AT@FAM={100 * result.fam_at_fraction:5.1f}%")
    return 0


def _parse_axes(parser: argparse.ArgumentParser, specs) -> dict:
    """``--axis name=v1,v2`` arguments into an axes mapping."""
    axes = {}
    for spec in specs or []:
        name, sep, values = spec.partition("=")
        if not sep or not values:
            parser.error(f"--axis expects NAME=V1[,V2,...], got {spec!r}")
        parsed = [v for v in values.split(",") if v]
        if not parsed:
            parser.error(f"--axis {name!r} lists no values")
        # Repeating an axis accumulates values: --axis stu-entries=256
        # --axis stu-entries=512 sweeps both.
        axes.setdefault(name, []).extend(parsed)
    return axes


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    from repro.experiments import faults
    from repro.experiments.shardfile import manifest_path, shard_cache_path
    from repro.experiments.supervisor import SupervisorConfig
    from repro.experiments.sweep import (
        SweepEngine,
        SweepProgress,
        parse_shard,
    )

    spec, settings = _spec_from_args(args, parser)
    shard = None
    cache_path = args.cache
    if args.shard:
        try:
            shard = parse_shard(args.shard)
        except ConfigError as exc:
            parser.error(str(exc))
        if not cache_path:
            parser.error("--shard requires --cache: each shard writes a "
                         "per-shard cache for 'deact cache merge'")
        cache_path = shard_cache_path(cache_path, *shard)
    from repro.errors import CacheError, SweepFailure, SweepInterrupted

    try:
        plan = faults.load_fault_plan(args.inject_faults) \
            if args.inject_faults else faults.plan_from_env()
    except ConfigError as exc:
        parser.error(str(exc))
    if plan is not None:
        # Activating (not just passing the plan down) also arms the
        # torn-write hook in *this* process, which performs the cache
        # merges the write faults target.
        faults.activate(plan)
    supervisor = SupervisorConfig(job_timeout_s=args.job_timeout,
                                  retries=args.retries,
                                  fail_fast=args.fail_fast)
    try:
        engine = SweepEngine(settings, cache_path=cache_path,
                             jobs=args.jobs, progress=SweepProgress())
        results = engine.run(spec, shard=shard, supervisor=supervisor,
                             fault_plan=plan,
                             checkpoint_every=args.checkpoint_every or None)
    except ConfigError as exc:
        parser.error(str(exc))
    except SweepInterrupted as exc:
        # Completed cells were flushed to the cache by the engine; a
        # re-run recalls them and finishes the rest.
        print(f"interrupted: {exc} (completed results saved"
              f"{' to ' + cache_path if cache_path else ''}; re-run to "
              f"resume)", file=sys.stderr)
        return 130
    except SweepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CacheError as exc:
        # E.g. the end-of-sweep merge timed out on a wedged cache
        # lock: report cleanly instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if shard is not None:
        print(f"shard {shard[0]}/{shard[1]}: {len(results)} of "
              f"{len(spec)} cells, jobs={args.jobs}")
        print(f"shard cache   : {cache_path}")
        print(f"shard manifest: {manifest_path(cache_path)}")
    else:
        print(f"{len(results)} runs "
              f"({len(spec.benchmarks)} benchmarks x "
              f"{len(spec.architectures)} architectures x "
              f"{len(spec.variants)} variants), jobs={args.jobs}")
    header = (f"{'benchmark':<10} {'arch':<8} {'variant':<28} "
              f"{'IPC':>8} {'runtime_ms':>11} {'AT@FAM%':>8}")
    print(header)
    print("-" * len(header))
    for (bench, arch, variant), result in results.items():
        print(f"{bench:<10} {arch:<8} {variant:<28} "
              f"{result.ipc:>8.4f} {result.runtime_ns / 1e6:>11.3f} "
              f"{100 * result.fam_at_fraction:>8.2f}")
    if engine.failures:
        # Quarantined jobs under the default keep-going policy: the
        # completed cells above are real and cached, but the sweep as
        # a whole is incomplete — exit nonzero so scripts notice.
        print(engine.failures.render(), file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args, parser: argparse.ArgumentParser) -> int:
    from repro.errors import CacheError
    from repro.experiments import shardfile
    from repro.experiments.cachefile import load_cache

    if args.cache_command == "merge":
        try:
            merged, manifests, shard_list = shardfile.merge_shards(
                args.cache, args.shards or None, strict=not args.force)
        except CacheError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"merged {len(shard_list)} shard cache(s) into {args.cache} "
              f"({len(merged)} entries)")
        for path, manifest in sorted(manifests.items()):
            print(f"  {path}: shard {manifest.index}/{manifest.count}, "
                  f"{len(manifest.cell_keys)} cell key(s), host "
                  f"{manifest.hostname}, fingerprint "
                  f"{manifest.fingerprint[:12]}...")
        return 0

    # validate / status both score the cache against a spec rebuilt
    # from the same flags that drove the sweep.
    spec, settings = _spec_from_args(args, parser)
    if getattr(args, "repair", False):
        try:
            repair = shardfile.repair_cache(args.cache, spec, settings)
        except CacheError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(repair.render())
        print()
    try:
        report = shardfile.validate_cache(args.cache, spec, settings)
    except CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.cache_command == "status":
        shards = shardfile.discover_shards(args.cache)
        covered = 100.0 * report.present_cells / report.expected_cells \
            if report.expected_cells else 100.0
        print(f"cache   : {args.cache}")
        print(f"coverage: {report.present_cells}/{report.expected_cells} "
              f"cells ({covered:.1f}%), {len(report.orphan_keys)} "
              f"orphan key(s)")
        print(f"shards  : {len(shards)} shard cache(s), "
              f"{len(report.manifest_fingerprints)} manifest(s)")
        for path in shards:
            print(f"  {path}: {len(load_cache(path))} entries")
        return 0
    print(report.render(strict=args.strict))
    return 0 if report.passes(strict=args.strict) else 1


def _cmd_profile(args, parser: argparse.ArgumentParser) -> int:
    import cProfile
    import pstats

    from repro.core.system import FamSystem
    from repro.experiments.runner import build_traces

    settings = _settings(args, parser)
    config = _config(args, parser)
    # Traces are built outside the profiled region: the subject is the
    # simulation hot path, not the NumPy trace generator.
    traces = build_traces(args.benchmark, args.nodes, settings)
    system = FamSystem(config, args.arch, seed=settings.seed * 31 + 5)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run(traces, benchmark=args.benchmark)
    profiler.disable()
    print(f"profile: {args.benchmark} on {args.arch} "
          f"({args.events} events)")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


def _cmd_figures(args, extra: Sequence[str]) -> int:
    from repro.experiments.__main__ import main as figures_main
    return figures_main(list(extra))


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # ``figures`` forwards everything after it verbatim; argparse's
    # REMAINDER chokes on leading flags inside a subparser, so split
    # before parsing.
    if argv and argv[0] == "figures":
        return _cmd_figures(None, argv[1:])

    parser = argparse.ArgumentParser(
        prog="deact",
        description="DeACT (HPCA 2021) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one benchmark/architecture")
    _add_trace_args(run_parser)
    run_parser.add_argument("--arch", default="deact-n",
                            choices=sorted(ARCHITECTURES))

    compare_parser = sub.add_parser(
        "compare", help="run one benchmark on all architectures")
    _add_trace_args(compare_parser)
    compare_parser.add_argument("--jobs", type=int, default=1,
                                help="worker processes (default 1)")

    sweep_parser = sub.add_parser(
        "sweep", help="run a benchmark x architecture x axis cross "
                      "product on a worker pool")
    _add_sweep_spec_args(sweep_parser)
    sweep_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes (default 1)")
    sweep_parser.add_argument("--cache", default=None,
                              help="JSON file memoizing run results "
                                   "(lock-safe across processes)")
    sweep_parser.add_argument("--shard", default=None, metavar="I/N",
                              help="run shard I of N (1-based) into a "
                                   "per-shard cache CACHE.shard-I-of-N"
                                   ".json plus manifest; requires "
                                   "--cache")
    sweep_parser.add_argument("--job-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="wall-clock limit per job; a worker "
                                   "past it is killed and the job "
                                   "retried (default: unlimited)")
    sweep_parser.add_argument("--retries", type=int, default=2,
                              help="re-executions per failed job before "
                                   "quarantine (default 2)")
    sweep_parser.add_argument("--fail-fast", action="store_true",
                              help="abort the whole sweep on the first "
                                   "permanently failed job (default: "
                                   "keep going, report quarantined "
                                   "jobs, exit 1)")
    sweep_parser.add_argument("--checkpoint-every", type=int, default=25,
                              metavar="N",
                              help="merge completed results into "
                                   "--cache every N jobs so a killed "
                                   "sweep resumes from disk (default "
                                   "25; 0 disables)")
    sweep_parser.add_argument("--inject-faults", default=None,
                              metavar="PLAN",
                              help="chaos testing: a fault-plan JSON "
                                   "file (or inline JSON) making "
                                   "chosen jobs crash/hang/corrupt or "
                                   "tearing cache writes; also read "
                                   "from $REPRO_FAULT_PLAN")

    cache_parser = sub.add_parser(
        "cache", help="merge, validate, and inspect sharded result "
                      "caches")
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    merge_parser = cache_sub.add_parser(
        "merge", help="merge shard caches into the canonical cache, "
                      "refusing conflicting payloads")
    merge_parser.add_argument("--cache", required=True,
                              help="canonical cache to merge into")
    merge_parser.add_argument("shards", nargs="*", metavar="SHARD",
                              help="shard cache files (default: discover "
                                   "CACHE.shard-*-of-*.json)")
    merge_parser.add_argument("--force", action="store_true",
                              help="demote merge conflicts, missing/"
                                   "unreadable manifests, fingerprint "
                                   "mismatches, and incomplete shards "
                                   "from errors to warnings (first "
                                   "payload wins)")
    validate_parser = cache_sub.add_parser(
        "validate", help="check a cache against a sweep spec: missing "
                         "cells, orphan keys, manifest fingerprints")
    validate_parser.add_argument("--cache", required=True)
    validate_parser.add_argument("--strict", action="store_true",
                                 help="also fail on keys outside the "
                                      "spec (orphans)")
    validate_parser.add_argument("--repair", action="store_true",
                                 help="quarantine corrupt/orphan cells "
                                      "to CACHE.quarantine.json, sweep "
                                      "dead .tmp files, flag "
                                      "manifestless shards, then "
                                      "re-validate")
    _add_sweep_spec_args(validate_parser)
    status_parser = cache_sub.add_parser(
        "status", help="coverage report for a cache against a sweep "
                       "spec")
    status_parser.add_argument("--cache", required=True)
    _add_sweep_spec_args(status_parser)

    profile_parser = sub.add_parser(
        "profile", help="cProfile one job and print the hottest "
                        "functions")
    profile_parser.add_argument("--benchmark", required=True,
                                choices=benchmark_names())
    profile_parser.add_argument("--arch", default="deact-n",
                                choices=sorted(ARCHITECTURES))
    profile_parser.add_argument("--events", type=int, default=20_000)
    profile_parser.add_argument("--footprint-scale", type=float,
                                default=0.06)
    profile_parser.add_argument("--seed", type=int, default=13)
    profile_parser.add_argument("--nodes", type=int, default=1)
    profile_parser.add_argument("--sort", default="cumulative",
                                help="pstats sort key (default "
                                     "cumulative)")
    profile_parser.add_argument("--limit", type=int, default=25,
                                help="rows to print (default 25)")

    sub.add_parser(
        "figures", help="regenerate paper figures (forwards arguments "
                        "to python -m repro.experiments)")

    args = parser.parse_args(argv)
    if hasattr(args, "jobs"):
        # The worker-count rule lives in one place
        # (runner.require_jobs); the CLI only translates its
        # ConfigError into the usual argparse exit.
        from repro.experiments.runner import require_jobs

        try:
            require_jobs(args.jobs, flag="--jobs")
        except ConfigError as exc:
            parser.error(str(exc))
    if getattr(args, "retries", 0) < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if getattr(args, "job_timeout", None) is not None \
            and args.job_timeout <= 0:
        parser.error(f"--job-timeout must be > 0, got {args.job_timeout}")
    if getattr(args, "checkpoint_every", 0) < 0:
        parser.error(f"--checkpoint-every must be >= 0, got "
                     f"{args.checkpoint_every}")
    if args.command == "run":
        return _cmd_run(args, parser)
    if args.command == "compare":
        return _cmd_compare(args, parser)
    if args.command == "sweep":
        return _cmd_sweep(args, parser)
    if args.command == "cache":
        return _cmd_cache(args, parser)
    if args.command == "profile":
        return _cmd_profile(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
