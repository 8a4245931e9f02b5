"""Supervised parallel execution for sweep jobs.

``multiprocessing.Pool.imap_unordered`` — the fan-out the sweep engine
used before this module — has exactly the failure modes a large sweep
matrix cannot afford: one raising job aborts the whole batch, a worker
that segfaults or hangs stalls ``imap_unordered`` forever, and either
way every completed-but-unmerged cell is lost.  The supervisor replaces
it with a small, explicit pool:

* each worker is a plain ``Process`` holding **one job at a time**,
  dispatched over a per-worker duplex ``Pipe`` — so the parent always
  knows which job died with which worker, and a worker killed mid-send
  can corrupt at most its own pipe;
* per-job **wall-clock timeouts** reap hung workers (terminate +
  respawn), turning a hang into an ordinary retryable failure;
* failed jobs retry with **seeded jittered exponential backoff** up to
  a bounded attempt budget, after which they are **quarantined** as a
  structured :class:`JobFailure` instead of poisoning the run;
* worker death (crash, OOM-kill, injected ``os._exit``) is detected by
  ``Process.is_alive`` and the worker respawned;
* every returned payload is structurally validated
  (:func:`~repro.experiments.runner.payload_ok`) before acceptance —
  a corrupted worker cannot smuggle garbage into the result cache;
* Ctrl-C / SIGTERM terminates the pool and raises
  :class:`~repro.errors.SweepInterrupted` carrying every completed
  payload, so the engine can flush finished cells to the cache before
  the interrupt propagates.

Determinism note: retries, respawns, backoff, and completion order all
stay on the *scheduling* side.  Results are produced by the same pure
:func:`~repro.experiments.runner.execute_job` and keyed by input
index, so a sweep that limped through crashes and timeouts yields a
cache byte-identical to a clean run — the invariant the chaos suite
asserts via ``canonical_cache_text``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SweepFailure, SweepInterrupted
from repro.experiments.faults import FaultPlan, active_plan, run_with_faults
from repro.experiments.runner import (
    SweepJob,
    job_key,
    payload_ok,
    require_jobs,
)

__all__ = [
    "FailureReport",
    "JobFailure",
    "SupervisedRun",
    "SupervisorConfig",
    "retry_delay_s",
    "run_supervised",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout policy for a supervised run.

    ``retries`` counts *re*-executions: every job gets ``retries + 1``
    attempts before quarantine.  ``job_timeout_s=None`` means no
    wall-clock limit (hangs are then only recoverable by Ctrl-C).
    ``fail_fast`` aborts the whole run on the first permanent failure
    (the pre-supervisor behavior); the default salvages everything
    that completed and reports the rest.
    """

    job_timeout_s: Optional[float] = None
    retries: int = 2
    fail_fast: bool = False
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_seed: int = 0
    poll_interval_s: float = 0.05

    def validate(self) -> "SupervisorConfig":
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError(
                f"job_timeout_s must be > 0, got {self.job_timeout_s}")
        return self


def retry_delay_s(config: SupervisorConfig, key: str, attempt: int) -> float:
    """Backoff before re-attempting ``key`` (``attempt`` is the one that
    just failed, 0-based): exponential, capped, with seeded jitter so
    co-failing jobs (e.g. all victims of one dead worker) do not retry
    in lockstep.  Seeded from (config seed, job key, attempt) — pure,
    so a re-run of the same chaos plan schedules identically.
    """
    base = min(config.backoff_cap_s,
               config.backoff_base_s * (2 ** min(attempt, 16)))
    rng = random.Random(f"{config.backoff_seed}|{key}|{attempt}")
    return base * rng.uniform(0.5, 1.5)


@dataclass(frozen=True)
class JobFailure:
    """One permanently failed (quarantined) job."""

    benchmark: str
    architecture: str
    attempts: int
    kind: str      # "error" | "timeout" | "worker-crash" | "corrupt-payload"
    detail: str

    def describe(self) -> str:
        return (f"{self.benchmark}/{self.architecture} "
                f"[{self.kind} after {self.attempts} attempt(s)] "
                f"{self.detail}")


@dataclass
class FailureReport:
    """The quarantine list of a supervised run, in job-index order."""

    failures: List[JobFailure] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    def render(self) -> str:
        if not self.failures:
            return "all jobs completed"
        lines = [f"{len(self.failures)} job(s) failed permanently:"]
        lines += [f"  - {f.describe()}" for f in self.failures]
        return "\n".join(lines)


@dataclass
class SupervisedRun:
    """Outcome of :func:`run_supervised`: payloads by input index
    (``None`` where quarantined) plus the failure report."""

    payloads: List[Optional[dict]]
    report: FailureReport

    def completed(self) -> Dict[int, dict]:
        return {i: p for i, p in enumerate(self.payloads) if p is not None}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn, plan: Optional[FaultPlan]) -> None:
    """One pool worker: receive ``(index, attempt, job)``, run it, send
    ``(index, attempt, status, payload_or_detail)``; ``None`` means
    shut down.

    SIGINT is ignored so a terminal Ctrl-C (delivered to the whole
    process group) reaches only the parent, which then terminates the
    pool in order and flushes completed results — workers dying first
    would race that salvage.  SIGTERM is reset to its default fatal
    disposition: fork inherits the parent's SIGTERM-as-interrupt
    handler, and a group-wide ``kill`` must stop workers dead, not
    leave them unwinding a meaningless KeyboardInterrupt.

    The dispatch wait polls rather than blocking forever: a sibling
    worker forked later holds a copy of this worker's parent-side pipe
    fd, so parent death does not reliably surface as EOF here.  The
    getppid watchdog catches it instead — an orphaned worker (parent
    crashed, e.g. an injected torn-write ``os._exit``) exits on its
    own within a poll interval instead of lingering forever.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent_pid = os.getppid()
    if plan is not None:
        from repro.experiments import faults
        faults.activate(plan)
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return  # orphaned: the supervisor is gone
                continue
            task = conn.recv()
        except (EOFError, OSError):
            return  # parent died or closed our pipe: nothing left to do
        if task is None:
            return
        index, attempt, job = task
        try:
            payload = run_with_faults(job, attempt)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            message = f"{type(exc).__name__}: {exc}"
            with contextlib.suppress(OSError, ValueError):
                conn.send((index, attempt, "error", message))
        else:
            with contextlib.suppress(OSError, ValueError):
                conn.send((index, attempt, "ok", payload))


def _pool_context():
    """Prefer ``fork`` (cheap, no re-import) on Linux only.

    macOS also offers ``fork`` but defaults to ``spawn`` because
    forking a threaded process is unsafe there; respect the platform
    default everywhere else.
    """
    if (sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _Worker:
    """A worker process plus its pipe and in-flight bookkeeping."""

    def __init__(self, context, plan: Optional[FaultPlan]) -> None:
        self.conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.proc = context.Process(target=_worker_main,
                                    args=(child_conn, plan), daemon=True)
        self.proc.start()
        child_conn.close()  # the worker holds the only child end now
        self.busy: Optional[Tuple[int, int]] = None  # (index, attempt)
        self.started_at: float = 0.0

    def dispatch(self, index: int, attempt: int, job: SweepJob) -> bool:
        try:
            self.conn.send((index, attempt, job))
        except (OSError, ValueError):
            return False
        self.busy = (index, attempt)
        self.started_at = time.monotonic()
        return True

    def kill(self) -> None:
        """Hard-stop: terminate, escalating to SIGKILL for a worker
        that ignores SIGTERM (e.g. stuck in uninterruptible sleep)."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
        if self.proc.is_alive():  # pragma: no cover - SIGTERM ignored
            self.proc.kill()
            self.proc.join(timeout=2.0)
        with contextlib.suppress(OSError):
            self.conn.close()

    def shutdown(self) -> None:
        """Orderly stop for an idle worker: sentinel, then escalate."""
        with contextlib.suppress(OSError, ValueError):
            self.conn.send(None)
        self.proc.join(timeout=2.0)
        self.kill()


# ----------------------------------------------------------------------
# Signal plumbing
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as ``KeyboardInterrupt`` for the duration.

    A supervised sweep treats ``kill <pid>`` exactly like Ctrl-C:
    terminate the pool, flush completed results, exit.  Signal handlers
    can only be installed from the main thread; elsewhere (tests
    driving the engine from a thread) this is a no-op and SIGTERM keeps
    its default fatal behavior.

    The handler is **one-shot**: tools like ``timeout`` and process
    supervisors signal the whole process group, and the parent's own
    fork-inherited handler plus a repeat delivery would otherwise raise
    a second KeyboardInterrupt *inside* the cleanup — aborting the
    worker shutdown mid-join and stranding the interpreter in
    multiprocessing's unbounded atexit ``join()``.  After the first
    delivery further SIGTERMs are ignored; the shutdown they would
    interrupt is bounded by per-join timeouts anyway.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _handler(signum, frame):  # pragma: no cover - exercised via kill
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt(f"terminated by signal {signum}")
    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextlib.contextmanager
def _shield_signals():
    """Hold SIGINT/SIGTERM at bay around a bounded cleanup section.

    A second Ctrl-C (or a group-wide SIGTERM repeat) landing inside the
    pool teardown or the salvage flush would abandon live workers to
    multiprocessing's unbounded atexit join and drop completed results
    on the floor.  Both sections finish in bounded time (every join
    carries a timeout, the flush is one atomic write), so deferring
    signals across them is safe.  Outside the main thread signals
    cannot be (re)installed, and none are delivered here either — no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous_int = signal.signal(signal.SIGINT, signal.SIG_IGN)
    previous_term = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous_int)
        signal.signal(signal.SIGTERM, previous_term)


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class _RunState:
    """Mutable bookkeeping for one supervised run."""

    def __init__(self, jobs: Sequence[SweepJob],
                 config: SupervisorConfig) -> None:
        self.jobs = list(jobs)
        self.config = config
        self.keys = [job_key(job) for job in self.jobs]
        self.payloads: List[Optional[dict]] = [None] * len(self.jobs)
        self.report = FailureReport()
        self.resolved = 0
        # (not_before_monotonic, index, attempt), kept sorted by
        # (not_before, index) so dispatch order is deterministic.
        self.pending: List[Tuple[float, int, int]] = [
            (0.0, index, 0) for index in range(len(self.jobs))]

    def pop_ready(self, now: float) -> Optional[Tuple[int, int]]:
        for slot, (not_before, index, attempt) in enumerate(self.pending):
            if not_before <= now:
                del self.pending[slot]
                return index, attempt
        return None

    def next_wakeup_in(self, now: float) -> Optional[float]:
        if not self.pending:
            return None
        return max(0.0, min(nb for nb, _i, _a in self.pending) - now)

    def requeue(self, index: int, attempt: int) -> None:
        delay = retry_delay_s(self.config, self.keys[index], attempt)
        entry = (time.monotonic() + delay, index, attempt + 1)
        self.pending.append(entry)
        self.pending.sort(key=lambda item: (item[0], item[1]))

    def accept(self, index: int, payload: dict,
               progress, on_result) -> None:
        if self.payloads[index] is not None:
            return  # stale duplicate (already resolved)
        self.payloads[index] = payload
        self.resolved += 1
        if on_result is not None:
            on_result(index, payload)
        if progress is not None:
            progress(self.resolved, len(self.jobs))

    def fail(self, index: int, attempt: int, kind: str, detail: str,
             progress) -> None:
        """One attempt failed: requeue with backoff, or quarantine."""
        if attempt < self.config.retries:
            self.requeue(index, attempt)
            return
        job = self.jobs[index]
        self.report.failures.append(JobFailure(
            benchmark=job.benchmark, architecture=job.architecture,
            attempts=attempt + 1, kind=kind, detail=detail))
        self.resolved += 1
        if progress is not None:
            progress(self.resolved, len(self.jobs))
        if self.config.fail_fast:
            raise SweepFailure(
                f"sweep aborted (fail-fast): {self.report.render()}",
                report=self.report,
                payloads={i: p for i, p in enumerate(self.payloads)
                          if p is not None})

    def completed(self) -> Dict[int, dict]:
        return {i: p for i, p in enumerate(self.payloads) if p is not None}


def run_supervised(jobs: Sequence[SweepJob], n_workers: int,
                   config: Optional[SupervisorConfig] = None,
                   progress: Optional[Callable[[int, int], None]] = None,
                   on_result: Optional[Callable[[int, dict], None]] = None,
                   fault_plan: Optional[FaultPlan] = None) -> SupervisedRun:
    """Execute ``jobs`` under supervision, in input-index order.

    Returns a :class:`SupervisedRun` whose ``payloads`` align with
    ``jobs`` (``None`` where quarantined).  Raises
    :class:`~repro.errors.SweepFailure` on a permanent failure under
    ``fail_fast``, and :class:`~repro.errors.SweepInterrupted` on
    Ctrl-C/SIGTERM — both carry every completed payload so callers can
    salvage them.  ``on_result(index, payload)`` fires as each payload
    is *accepted* (completion order), which is what the engine's
    periodic cache checkpointing hooks.
    """
    require_jobs(n_workers)
    config = (config or SupervisorConfig()).validate()
    plan = fault_plan if fault_plan is not None else active_plan()
    state = _RunState(jobs, config)
    if not jobs:
        return SupervisedRun(payloads=[], report=state.report)
    inline = ((n_workers == 1 or len(jobs) <= 1)
              and config.job_timeout_s is None
              and (plan is None or not plan.execution_rules()))
    with _sigterm_as_interrupt():
        if inline:
            _run_inline(state, plan, progress, on_result)
        else:
            _run_pool(state, n_workers, plan, progress, on_result)
    return SupervisedRun(payloads=state.payloads, report=state.report)


def _run_inline(state: _RunState, plan: Optional[FaultPlan],
                progress, on_result) -> None:
    """Single-process path: same retry/quarantine semantics, no pool.

    Only taken when the plan has no execution faults (a crash fault
    would ``os._exit`` the parent) and no wall-clock timeout is set (a
    hang cannot be reaped in-process).
    """
    config = state.config
    try:
        while True:
            item = state.pop_ready(time.monotonic())
            if item is None:
                wakeup = state.next_wakeup_in(time.monotonic())
                if wakeup is None:
                    break
                time.sleep(wakeup)
                continue
            index, attempt = item
            try:
                payload = run_with_faults(state.jobs[index], attempt, plan)
            except Exception as exc:
                state.fail(index, attempt, "error",
                           f"{type(exc).__name__}: {exc}", progress)
                continue
            if not payload_ok(payload):
                state.fail(index, attempt, "corrupt-payload",
                           "worker returned a structurally invalid "
                           "payload", progress)
                continue
            state.accept(index, payload, progress, on_result)
    except KeyboardInterrupt:
        raise SweepInterrupted(
            f"sweep interrupted with {state.resolved}/{len(state.jobs)} "
            f"jobs resolved", payloads=state.completed()) from None


def _run_pool(state: _RunState, n_workers: int,
              plan: Optional[FaultPlan], progress, on_result) -> None:
    config = state.config
    context = _pool_context()
    count = min(n_workers, len(state.jobs))
    workers: List[_Worker] = []
    try:
        workers = [_Worker(context, plan) for _ in range(count)]
        while state.resolved < len(state.jobs):
            now = time.monotonic()
            # Dispatch ready work to idle workers.
            for worker in workers:
                if worker.busy is not None:
                    continue
                item = state.pop_ready(now)
                if item is None:
                    break
                if not worker.dispatch(item[0], item[1],
                                       state.jobs[item[0]]):
                    # Pipe already broken: treat like a crash below.
                    worker.busy = (item[0], item[1])
                    worker.started_at = now
            # Wait for whichever busy worker speaks first.
            busy = [w for w in workers if w.busy is not None]
            if busy:
                ready = _connection_wait(
                    [w.conn for w in busy],
                    timeout=config.poll_interval_s)
                conn_to_worker = {id(w.conn): w for w in busy}
                for conn in ready:
                    worker = conn_to_worker[id(conn)]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        continue  # death: the health pass handles it
                    _handle_message(state, worker, message,
                                    progress, on_result)
            else:
                wakeup = state.next_wakeup_in(now)
                if wakeup is None:  # nothing pending, nothing in flight
                    break  # pragma: no cover - resolved check exits first
                if wakeup > 0:
                    time.sleep(min(wakeup, config.poll_interval_s))
            _health_pass(state, workers, context, plan, progress,
                         on_result)
    except KeyboardInterrupt:
        raise SweepInterrupted(
            f"sweep interrupted with {state.resolved}/{len(state.jobs)} "
            f"jobs resolved", payloads=state.completed()) from None
    finally:
        with _shield_signals():
            for worker in workers:
                if worker.busy is None:
                    worker.shutdown()
                else:
                    worker.kill()


def _handle_message(state: _RunState, worker: _Worker, message,
                    progress, on_result) -> None:
    worker.busy = None
    try:
        index, attempt, status, body = message
    except (TypeError, ValueError):
        return  # torn pipe garbage; the job stays with its attempt
    if status == "ok":
        if payload_ok(body):
            state.accept(index, body, progress, on_result)
        else:
            state.fail(index, attempt, "corrupt-payload",
                       "worker returned a structurally invalid payload",
                       progress)
    else:
        state.fail(index, attempt, "error", str(body), progress)


def _health_pass(state: _RunState, workers: List[_Worker], context,
                 plan: Optional[FaultPlan], progress, on_result) -> None:
    """Reap dead and overdue workers, requeueing their in-flight job."""
    now = time.monotonic()
    for slot, worker in enumerate(workers):
        if worker.busy is None:
            continue
        index, attempt = worker.busy
        if not worker.proc.is_alive():
            # Drain a result the worker managed to send before dying.
            with contextlib.suppress(EOFError, OSError):
                while worker.conn.poll(0):
                    _handle_message(state, worker, worker.conn.recv(),
                                    progress, on_result)
            if worker.busy is not None:
                exitcode = worker.proc.exitcode
                worker.busy = None
                state.fail(index, attempt, "worker-crash",
                           f"worker died with exit code {exitcode} "
                           f"while running the job", progress)
            worker.kill()
            workers[slot] = _Worker(context, plan)
        elif (state.config.job_timeout_s is not None
              and now - worker.started_at > state.config.job_timeout_s):
            worker.kill()
            worker.busy = None
            state.fail(index, attempt, "timeout",
                       f"job exceeded --job-timeout "
                       f"{state.config.job_timeout_s:.1f}s", progress)
            workers[slot] = _Worker(context, plan)
