"""Run management and memoization for the experiment harness.

A figure is a set of (benchmark, architecture, config-variant) runs;
several figures share runs (Figures 3, 4, 9-12 all consume the default
configuration matrix), so the runner memoizes results by a structural
key.  An optional on-disk JSON cache lets the benchmark harness and
repeated CLI invocations skip completed work.

Execution itself is a pure function of a :class:`SweepJob` —
:func:`execute_job` builds the traces, runs the system, and returns a
plain serialized dict.  The serial path (:meth:`ExperimentRunner.run`)
and the multiprocessing workers of :mod:`repro.experiments.sweep`
share that function, which is what makes ``--jobs N`` bit-identical to
serial execution.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import astuple, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.config.presets import default_config
from repro.config.system import SystemConfig
from repro.core.results import NodeMetrics, RunResult
from repro.core.system import FamSystem
from repro.experiments.cachefile import load_cache, merge_into_cache
from repro.workloads.catalog import get_profile

__all__ = ["RunSettings", "SweepJob", "ExperimentRunner", "execute_job",
           "job_key", "build_traces", "fingerprint_keys", "payload_ok",
           "require_jobs"]


def require_jobs(n: int, flag: str = "jobs") -> int:
    """The one home of the worker-count rule: ``jobs`` must be >= 1.

    Every layer that accepts a worker count (CLI flags, the sweep
    engine, the memoizing runner, the raw pool fan-out) funnels
    through here, so the rule and its message cannot drift apart.
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


def _memo_key(benchmark: str, architecture: str, config: SystemConfig,
              settings: RunSettings) -> Tuple:
    """A structural key over every field of ``config``, so no two
    configurations share a result."""
    return (benchmark, architecture, astuple(config),
            settings.n_events, settings.footprint_scale, settings.seed)


def job_key(job: SweepJob) -> str:
    """The on-disk cache key for a job (stable across processes)."""
    return repr(_memo_key(job.benchmark, job.architecture, job.config,
                          job.settings))


def build_traces(benchmark: str, nodes: int, settings: RunSettings) -> List:
    """Materialize the deterministic per-node traces for a benchmark."""
    profile = get_profile(benchmark)
    return [
        profile.build_trace(
            n_events=settings.n_events,
            seed=settings.seed + 1009 * node,
            footprint_scale=settings.footprint_scale)
        for node in range(nodes)
    ]


def _run_system(job: SweepJob, traces: Sequence) -> RunResult:
    """The single execution path shared by serial runs and workers.

    Attaches per-job telemetry (wall time, events/sec, tag-store probe
    counts) to the result — measurement metadata, never compared (see
    :class:`~repro.core.results.RunResult`).
    """
    system = FamSystem(job.config, job.architecture,
                       seed=job.settings.seed * 31 + 5)
    start = time.perf_counter()
    result = system.run(traces, benchmark=job.benchmark)
    wall_s = time.perf_counter() - start
    events = sum(len(trace) for trace in traces)
    probes = system.tag_store_probes()
    result.telemetry = {
        "wall_s": wall_s,
        "events": float(events),
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "tag_probes": float(probes),
        "probes_per_event": probes / events if events else 0.0,
    }
    return result


#: Trace memo for :func:`execute_job` only.  Pool workers persist
#: across jobs, so without it a sweep regenerates a benchmark's traces
#: once per (benchmark, architecture, variant) job instead of once per
#:  benchmark per worker.  Bounded: cleared when it outgrows the
#: benchmark catalog, which only happens under many distinct settings.
_EXECUTE_TRACE_MEMO: Dict[Tuple, List] = {}
_EXECUTE_TRACE_MEMO_MAX = 32


def execute_job(job: SweepJob) -> dict:
    """Execute one job from scratch and return the serialized result.

    Pure apart from a deterministic trace memo, and picklable: no open
    handles — a worker process rebuilds the traces itself (trace
    generation is a deterministic function of the job) and ships back
    a plain dict.  The payload carries a ``telemetry`` key (wall time,
    events/sec, probes, trace-build time); comparisons of run *results*
    use :func:`_result_to_dict`, which excludes it.
    """
    key = (job.benchmark, job.config.nodes, job.settings)
    traces = _EXECUTE_TRACE_MEMO.get(key)
    build_s = 0.0
    if traces is None:
        build_start = time.perf_counter()
        traces = build_traces(job.benchmark, job.config.nodes, job.settings)
        build_s = time.perf_counter() - build_start
        if len(_EXECUTE_TRACE_MEMO) >= _EXECUTE_TRACE_MEMO_MAX:
            _EXECUTE_TRACE_MEMO.clear()
        _EXECUTE_TRACE_MEMO[key] = traces
    result = _run_system(job, traces)
    if result.telemetry is not None:
        result.telemetry["trace_build_s"] = build_s
    return _payload_from_result(result)


class ExperimentRunner:
    """Memoizing runner for (benchmark, architecture, variant) runs.

    ``jobs`` > 1 fans :meth:`run_matrix` and :meth:`prewarm` out over a
    worker pool (see :mod:`repro.experiments.sweep`); individual
    :meth:`run` calls stay in-process and hit the shared memo.
    """

    def __init__(self, settings: Optional[RunSettings] = None,
                 cache_path: Optional[str] = None, jobs: int = 1) -> None:
        require_jobs(jobs)
        self.settings = settings or RunSettings()
        self.cache_path = cache_path
        self.jobs = jobs
        self._memo: Dict[Tuple, RunResult] = {}
        self._trace_memo: Dict[Tuple, List] = {}
        self._disk: Dict[str, dict] = {}
        if cache_path:
            self._disk = load_cache(cache_path)

    # ------------------------------------------------------------------
    def _trace_for(self, benchmark: str, nodes: int):
        """Build (and memoize per-runner) the traces for a benchmark."""
        key = (benchmark, nodes, self.settings)
        traces = self._trace_memo.get(key)
        if traces is None:
            traces = build_traces(benchmark, nodes, self.settings)
            self._trace_memo[key] = traces
        return traces

    def run(self, benchmark: str, architecture: str,
            config: Optional[SystemConfig] = None) -> RunResult:
        """Run (or recall) one benchmark on one architecture."""
        config = config or default_config()
        key = _memo_key(benchmark, architecture, config, self.settings)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        disk_key = repr(key)
        if disk_key in self._disk:
            result = _result_from_dict(self._disk[disk_key])
            self._memo[key] = result
            return result
        job = SweepJob(benchmark, architecture, config, self.settings)
        traces = self._trace_for(benchmark, config.nodes)
        result = _run_system(job, traces)
        self._memo[key] = result
        if self.cache_path is not None:
            self._disk[disk_key] = _payload_from_result(result)
            self._flush()
        return result

    def run_matrix(self, benchmarks: Sequence[str],
                   architectures: Sequence[str],
                   config: Optional[SystemConfig] = None,
                   jobs: Optional[int] = None,
                   ) -> Dict[Tuple[str, str], RunResult]:
        """Run the cross product, returning ``(bench, arch) -> result``.

        With ``jobs`` (or the runner's own ``jobs``) > 1 the missing
        cells execute on a worker pool; results are identical to the
        serial path because both call :func:`execute_job`'s core.
        """
        config = config or default_config()
        self.prewarm([(bench, arch, config)
                      for bench in benchmarks for arch in architectures],
                     jobs=jobs)
        return {(bench, arch): self.run(bench, arch, config)
                for bench in benchmarks for arch in architectures}

    def prewarm(self, triples: Sequence[Tuple[str, str, SystemConfig]],
                jobs: Optional[int] = None, progress=None) -> int:
        """Execute any not-yet-memoized ``(bench, arch, config)`` runs,
        fanning out over ``jobs`` workers.  Returns the number of runs
        actually executed (as opposed to recalled)."""
        from repro.experiments.sweep import run_jobs  # avoid import cycle

        n_workers = require_jobs(self.jobs if jobs is None else jobs)
        pending: List[SweepJob] = []
        seen = set()
        for benchmark, architecture, config in triples:
            key = _memo_key(benchmark, architecture, config, self.settings)
            if key in seen or key in self._memo or repr(key) in self._disk:
                continue
            seen.add(key)
            pending.append(SweepJob(benchmark, architecture, config,
                                    self.settings))
        if not pending:
            return 0
        payloads = run_jobs(pending, n_workers, progress=progress)
        entries = {}
        for job, payload in zip(pending, payloads):
            key = _memo_key(job.benchmark, job.architecture, job.config,
                            job.settings)
            self._memo[key] = _result_from_dict(payload)
            entries[repr(key)] = payload
        if self.cache_path is not None:
            self._disk = merge_into_cache(self.cache_path, entries)
        return len(pending)

    # ------------------------------------------------------------------
    def telemetry_summary(self) -> Dict[str, float]:
        """Aggregate per-job telemetry over every memoized run.

        Only runs that carry telemetry (executed or recalled from a
        cache written by this version) contribute; results recalled
        from older caches count toward ``runs`` but not the rates.
        """
        runs = len(self._memo)
        telemetries = [result.telemetry for result in self._memo.values()
                       if result.telemetry is not None]
        total_events = sum(t.get("events", 0.0) for t in telemetries)
        total_wall = sum(t.get("wall_s", 0.0) for t in telemetries)
        total_probes = sum(t.get("tag_probes", 0.0) for t in telemetries)
        return {
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

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        if self.cache_path is None:
            return
        self._disk = merge_into_cache(self.cache_path, self._disk)


def _payload_from_result(result: RunResult) -> dict:
    """Cache/worker payload: the serialized result plus telemetry."""
    payload = _result_to_dict(result)
    if result.telemetry is not None:
        payload["telemetry"] = dict(result.telemetry)
    return payload


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
    accepting it (a fault-injected or memory-corrupted worker can send
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
