"""Run management, memoization and caching for the experiment harness.

A figure is a set of (benchmark, architecture, config-variant) runs,
its spec's :meth:`~repro.experiments.figures.FigureSpec.cells`;
several figures share runs (Figures 3, 4, 9-12 and Table III all
consume the default configuration matrix), so :class:`ExperimentRunner`
memoizes results by each run's cache key.  An optional on-disk JSON cache lets the figure
harness, ``deact sweep`` and repeated CLI invocations skip completed
work.

Execution itself is a pure function of a :class:`SweepJob` —
:func:`execute_job` builds the traces, runs the system, and returns a
plain serialized dict.  Within one process it memoizes two things, each
in a bounded LRU: each node's trace, keyed by benchmark, trace
settings and node index, and each node's node-side stream
(:class:`~repro.core.node.NodeStream`), keyed by
:func:`node_side_key` — the benchmark, the trace settings (which fix
the system seed too), the node's index, the L1/L2/L3, TLB and node
page-walk configurations, the local DRAM size and ``local_fraction``.
Every figure's cells that differ only past the last-level cache share
a key, so they share one node-side pass, and node ``k`` of an
``n``-node cell shares node ``k``'s trace and stream with every other
node count.  :meth:`ExperimentRunner.prewarm` orders its jobs by that
key so that cells sharing a stream run back to back.

The runner executes every run the same way:
:meth:`ExperimentRunner.prewarm` hands it to the supervisor
(:mod:`repro.experiments.supervisor`), which calls :func:`execute_job`
in-process or on a worker pool.  That one path is what makes
``--jobs N`` bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, \
    Optional, Sequence, Tuple

from repro.errors import ConfigError, SweepFailure, SweepInterrupted
from repro.config.presets import default_config
from repro.config.system import SystemConfig
from repro.core.results import NodeMetrics, RunResult
from repro.core.system import FamSystem
from repro.experiments.cachefile import load_cache, merge_into_cache
from repro.memo import BoundedMemo
from repro.workloads.catalog import get_profile

if TYPE_CHECKING:
    from repro.experiments.supervisor import FailureReport, SupervisorConfig

__all__ = ["RunSettings", "SweepJob", "ExperimentRunner", "execute_job",
           "job_key", "node_side_key", "build_traces", "fingerprint_keys",
           "payload_ok", "require_jobs"]


def require_jobs(n: int, flag: str = "jobs") -> int:
    """The one home of the worker-count rule: ``jobs`` must be >= 1.

    Every layer that accepts a worker count (CLI flags, the runner,
    the supervised pool) funnels through here, so the rule and its
    message cannot drift apart.
    """
    if n < 1:
        raise ConfigError(f"{flag} must be >= 1, got {n}")
    return n


def fingerprint_keys(keys: Iterable[str]) -> str:
    """Order-independent fingerprint of a set of cache keys.

    SHA-256 over the sorted, deduplicated keys: two hosts expanding
    the same sweep spec with the same settings compute the same
    fingerprint no matter how their cells are ordered or sharded,
    while any drift in benchmarks, architectures, variants, or
    trace-scale settings changes it.  Shard manifests carry it so a
    merge can refuse shards of a different sweep.
    """
    digest = hashlib.sha256()
    for key in sorted(set(keys)):
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class RunSettings:
    """Trace-scale settings shared by every run of a harness instance.

    The paper simulates >=100M instructions per configuration in SST —
    far beyond a Python budget — so the harness runs shorter traces
    over proportionally scaled footprints.  The defaults keep roughly
    the paper's ratio of working set to translation-structure reach
    while giving each page enough revisits for warm hit rates.
    """

    n_events: int = 150_000
    footprint_scale: float = 0.12
    seed: int = 7

    def __post_init__(self) -> None:
        # The one home of the trace-scale rule; the CLIs translate its
        # ConfigError into their usual argparse exit.
        if self.n_events < 1:
            raise ConfigError(
                f"n_events must be >= 1, got {self.n_events}")
        if not self.footprint_scale > 0:
            raise ConfigError(
                f"footprint_scale must be > 0, got {self.footprint_scale}")


@dataclass(frozen=True)
class SweepJob:
    """One independent unit of simulation work.

    Everything a worker process needs to reproduce the run exactly:
    the workload, the architecture, the full system configuration, and
    the trace-scale settings.  All fields are plain frozen dataclasses,
    so a job pickles cleanly across ``multiprocessing`` boundaries.
    """

    benchmark: str
    architecture: str
    config: SystemConfig
    settings: RunSettings


def job_key(job: SweepJob) -> str:
    """The memo and on-disk cache key for a job (stable across
    processes): structural over every field of ``config``, so no two
    configurations share a result."""
    settings = job.settings
    return repr((job.benchmark, job.architecture, astuple(job.config),
                 settings.n_events, settings.footprint_scale, settings.seed))


def build_traces(benchmark: str, nodes: int, settings: RunSettings) -> List:
    """Materialize the deterministic per-node traces for a benchmark."""
    return [build_node_trace(benchmark, node, settings)
            for node in range(nodes)]


def build_node_trace(benchmark: str, node: int, settings: RunSettings):
    """Node ``node``'s trace, the same at every node count."""
    return get_profile(benchmark).build_trace(
        n_events=settings.n_events,
        seed=settings.seed + 1009 * node,
        footprint_scale=settings.footprint_scale)


#: Trace memo for :func:`execute_job`, one node's trace per
#: ``(benchmark, settings, node)``.  Pool workers persist across jobs,
#: so without it a sweep regenerates a benchmark's traces once per
#: (benchmark, architecture, variant) job instead of once per
#: benchmark per worker.  LRU-bounded, so many distinct settings cannot
#: pin every trace for the life of the process; the bound holds the
#: eight traces of the largest Fig. 16 cell.
_TRACE_MEMO = BoundedMemo(10)

#: Stream memo for :func:`execute_job`: one node's node-side stream
#: per :func:`node_side_key`.  A stream of a 150k-event harness trace
#: takes 5-22 MB, and the largest cell, 8-node Fig. 16, needs eight at
#: once; :meth:`ExperimentRunner.prewarm` runs the cells that share
#: streams back to back, so the bound costs few passes.  Never reached
#: by a bare ``FamSystem.run``, which always runs its own passes.
_STREAM_MEMO = BoundedMemo(10)


def node_side_key(job: SweepJob, node: int) -> tuple:
    """The inputs that fix node ``node``'s node-side stream in
    ``job``: what :class:`~repro.core.node.NodeStream` depends on.
    ``settings`` fixes both the node's trace and the system seed; the
    architecture and every configuration past the last-level cache are
    left out, since the node side never reads them."""
    config = job.config
    return (job.benchmark, job.settings, node, config.l1, config.l2,
            config.l3, config.tlb, config.ptw,
            config.local_memory.size_bytes,
            config.allocation.local_fraction)


def execute_job(job: SweepJob) -> dict:
    """Execute one job from scratch and return the serialized result.

    Pure apart from the deterministic trace and stream memos, and
    picklable: no open handles — a worker process rebuilds the traces
    itself (trace generation is a deterministic function of the job)
    and ships back a plain dict.  A node whose stream is memoized
    adopts it instead of running its pass
    (:meth:`~repro.core.system.FamSystem.node_streams`), which leaves
    the result and the tag-store probe count as a fresh pass would.
    The payload carries a ``telemetry`` key (wall time, events/sec,
    tag-store probes, trace-build time, node-side pass time; the wall
    time includes the passes) — measurement metadata, never compared:
    comparisons of run *results* use :func:`_result_to_dict`, which
    excludes it.
    """
    traces = []
    build_s = 0.0
    for node in range(job.config.nodes):
        key = (job.benchmark, job.settings, node)
        trace = _TRACE_MEMO.get(key)
        if trace is None:
            build_start = time.perf_counter()
            trace = build_node_trace(job.benchmark, node, job.settings)
            build_s += time.perf_counter() - build_start
            _TRACE_MEMO.put(key, trace)
        traces.append(trace)
    system = FamSystem(job.config, job.architecture,
                       seed=job.settings.seed * 31 + 5)
    stream_keys = [node_side_key(job, node)
                   for node in range(job.config.nodes)]
    memoized = [_STREAM_MEMO.get(stream_key) for stream_key in stream_keys]
    start = time.perf_counter()
    streams = system.node_streams(traces, memoized)
    pass_s = time.perf_counter() - start
    passes = 0
    for stream_key, stream, old in zip(stream_keys, streams, memoized):
        if stream is not old:
            passes += 1
            _STREAM_MEMO.put(stream_key, stream)
    result = system.run(traces, benchmark=job.benchmark, streams=streams)
    wall_s = time.perf_counter() - start
    events = sum(len(trace) for trace in traces)
    probes = system.tag_store_probes()
    payload = _result_to_dict(result)
    payload["telemetry"] = {
        "wall_s": wall_s,
        "events": float(events),
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "tag_probes": float(probes),
        "probes_per_event": probes / events if events else 0.0,
        "trace_build_s": build_s,
        "node_pass_s": pass_s if passes else 0.0,
    }
    return payload


class ExperimentRunner:
    """The memoizing, cache-backed executor of every harness run.

    Every run executes through :meth:`prewarm`, which hands the runs it
    cannot recall to :func:`~repro.experiments.supervisor.run_supervised`:
    in-process for ``jobs`` = 1, on a worker pool otherwise, under the
    same retry, timeout and payload-validation policy either way.

    ``progress(done, total)`` is called as jobs resolve.
    ``supervisor`` sets that policy; the default fails fast, so a job
    that still fails after its retries raises
    :class:`~repro.errors.SweepFailure`.  Under a keep-going
    supervisor, the last :meth:`prewarm`'s quarantine list lands on
    :attr:`failures` instead.  With a ``cache_path``, finished payloads
    are merged into the cache file every ``checkpoint_every`` results,
    at the end of each :meth:`prewarm`, and before a fail-fast abort or
    an interrupt propagates, so an aborted run loses at most its
    in-flight jobs.
    """

    def __init__(self, settings: Optional[RunSettings] = None,
                 cache_path: Optional[str] = None, jobs: int = 1,
                 progress: Optional[Callable[[int, int], None]] = None,
                 supervisor: Optional[SupervisorConfig] = None,
                 checkpoint_every: Optional[int] = None) -> None:
        require_jobs(jobs)
        self.settings = settings or RunSettings()
        self.cache_path = cache_path
        self.jobs = jobs
        self.progress = progress
        self.supervisor = supervisor
        self.checkpoint_every = checkpoint_every
        self.failures: Optional[FailureReport] = None
        self._memo: Dict[str, RunResult] = {}
        self._disk: Dict[str, dict] = (
            load_cache(cache_path) if cache_path else {})

    # ------------------------------------------------------------------
    def run(self, benchmark: str, architecture: str,
            config: Optional[SystemConfig] = None) -> RunResult:
        """Run (or recall) one benchmark on one architecture."""
        triple = (benchmark, architecture, config or default_config())
        result = self.recall(*triple)
        if result is None:
            self.prewarm([triple])
            result = self.recall(*triple)
        if result is None:  # quarantined under a keep-going supervisor
            raise SweepFailure(f"run failed: {self.failures.render()}",
                               report=self.failures)
        return result

    def recall(self, benchmark: str, architecture: str,
               config: Optional[SystemConfig] = None) \
            -> Optional[RunResult]:
        """The memoized or cached result of one run, or ``None``.
        Never executes anything."""
        key = job_key(SweepJob(benchmark, architecture,
                               config or default_config(), self.settings))
        result = self._memo.get(key)
        if result is None and key in self._disk:
            result = self._memo[key] = _result_from_dict(self._disk[key])
        return result

    def run_matrix(self, benchmarks: Sequence[str],
                   architectures: Sequence[str],
                   config: Optional[SystemConfig] = None,
                   ) -> Dict[Tuple[str, str], RunResult]:
        """Run the cross product, returning ``(bench, arch) -> result``."""
        config = config or default_config()
        self.prewarm([(bench, arch, config)
                      for bench in benchmarks for arch in architectures])
        return {(bench, arch): self.run(bench, arch, config)
                for bench in benchmarks for arch in architectures}

    def prewarm(self, triples: Sequence[Tuple[str, str, SystemConfig]]
                ) -> int:
        """Execute every ``(bench, arch, config)`` run that is neither
        memoized nor cached, each distinct run once.  Returns the number
        of runs executed (as opposed to recalled)."""
        # Imported here: the supervisor imports this module.
        from repro.experiments.supervisor import (
            SupervisorConfig,
            _shield_signals,
            run_supervised,
        )

        self.failures = None
        pending: Dict[str, SweepJob] = {}
        for benchmark, architecture, config in triples:
            job = SweepJob(benchmark, architecture, config, self.settings)
            key = job_key(job)
            if key not in self._memo and key not in self._disk:
                pending.setdefault(key, job)
        if not pending:
            return 0
        # Cells that share node-side streams run back to back, so a
        # worker's stream memo hits; groups keep the order of their
        # first cell (sorted() is stable).
        groups: Dict[tuple, int] = {}
        for job in pending.values():
            groups.setdefault(node_side_key(job, 0), len(groups))
        keys = sorted(pending,
                      key=lambda key: groups[node_side_key(pending[key], 0)])
        unflushed: Dict[str, dict] = {}

        def checkpoint(index: int, payload: dict) -> None:
            unflushed[keys[index]] = payload
            if (self.checkpoint_every
                    and len(unflushed) >= self.checkpoint_every):
                self._store(unflushed)
                unflushed.clear()

        try:
            run = run_supervised(
                [pending[key] for key in keys], self.jobs,
                config=self.supervisor or SupervisorConfig(fail_fast=True),
                progress=self.progress, on_result=checkpoint)
        except (SweepFailure, SweepInterrupted) as exc:
            # Salvage: finished runs reach the cache even though the run
            # as a whole is aborting.  Shielded — a second Ctrl-C or
            # SIGTERM here would drop every finished payload.
            with _shield_signals():
                self._store({keys[i]: p for i, p in exc.payloads.items()})
            raise
        if run.report:
            self.failures = run.report
        self._store({keys[i]: p for i, p in run.completed().items()})
        return len(keys)

    def _store(self, payloads: Dict[str, dict]) -> None:
        """Memoize fresh payloads and merge them into the cache file."""
        for key, payload in payloads.items():
            self._memo[key] = _result_from_dict(payload)
        if payloads and self.cache_path is not None:
            self._disk = merge_into_cache(self.cache_path, payloads)

    # ------------------------------------------------------------------
    def telemetry_summary(self) -> Dict[str, float]:
        """Aggregate per-job telemetry over every memoized run.

        Only runs that carry telemetry (executed or recalled from a
        cache written by this version) contribute; results recalled
        from older caches count toward ``runs`` but not the rates.
        ``trace_build_s`` and ``node_pass_s`` sum the per-cell trace
        builds and node-side passes (0 for a cell whose traces or
        streams came from a worker's memo); ``wall_s`` includes the
        passes but not the builds.
        """
        runs = len(self._memo)
        telemetries = [result.telemetry for result in self._memo.values()
                       if result.telemetry is not None]
        total_events = sum(t.get("events", 0.0) for t in telemetries)
        total_wall = sum(t.get("wall_s", 0.0) for t in telemetries)
        total_probes = sum(t.get("tag_probes", 0.0) for t in telemetries)
        return {
            "trace_build_s": sum(t.get("trace_build_s", 0.0)
                                 for t in telemetries),
            "node_pass_s": sum(t.get("node_pass_s", 0.0)
                               for t in telemetries),
            "runs": float(runs),
            "runs_with_telemetry": float(len(telemetries)),
            "events": total_events,
            "wall_s": total_wall,
            "events_per_sec": (total_events / total_wall
                               if total_wall > 0 else 0.0),
            "tag_probes": total_probes,
            "probes_per_event": (total_probes / total_events
                                 if total_events else 0.0),
        }


def _result_to_dict(result: RunResult) -> dict:
    """Serialize the *simulated outcome* (telemetry excluded, so two
    runs of the same job serialize bit-identically)."""
    return {
        "architecture": result.architecture,
        "benchmark": result.benchmark,
        "fam_counters": result.fam_counters,
        "fabric_counters": result.fabric_counters,
        "nodes": [
            {
                "node_id": n.node_id,
                "instructions": n.instructions,
                "memory_accesses": n.memory_accesses,
                "cycles": n.cycles,
                "runtime_ns": n.runtime_ns,
                "llc_misses": n.llc_misses,
                "fam_data_accesses": n.fam_data_accesses,
                "tlb_hit_rate": n.tlb_hit_rate,
                "node_walks": n.node_walks,
                "translation_hit_rate": n.translation_hit_rate,
                "acm_hit_rate": n.acm_hit_rate,
                "counters": n.counters,
            }
            for n in result.nodes
        ],
    }


def payload_ok(payload: object) -> bool:
    """Whether a worker/cache payload is a structurally valid serialized
    :class:`RunResult`.

    The supervisor validates every payload a worker returns before
    accepting it (a buggy or memory-corrupted worker can send
    garbage without raising), and ``deact cache validate --repair``
    uses the same predicate to quarantine corrupt cells — one
    definition of "well-formed" for both layers.
    """
    if not isinstance(payload, dict):
        return False
    try:
        _result_from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return False
    return True


def _result_from_dict(data: dict) -> RunResult:
    return RunResult(
        architecture=data["architecture"],
        benchmark=data["benchmark"],
        fam_counters=data.get("fam_counters", {}),
        fabric_counters=data.get("fabric_counters", {}),
        nodes=[NodeMetrics(**n) for n in data["nodes"]],
        telemetry=data.get("telemetry"),
    )
