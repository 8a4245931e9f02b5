"""Supervised execution: retries, timeouts, quarantine, chaos
determinism, interrupt salvage, and checkpoint resume.

The paper-grade invariant under test throughout: a sweep that limps
through injected crashes, hangs, and corrupt payloads produces a
results cache **byte-identical** (``canonical_cache_text``) to a
clean run — recovery is scheduling noise, never result noise.  Faults
come from the ``faults`` fixture in ``conftest.py``, which patches
the production job function, and from patching ``os.replace``.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.cli import main
from repro.errors import SweepFailure, SweepInterrupted
from repro.experiments.runner import ExperimentRunner, RunSettings, \
    payload_ok
from repro.experiments.supervisor import (
    BACKOFF_CAP_S,
    SupervisorConfig,
    _shield_signals,
    _sigterm_as_interrupt,
    retry_delay_s,
    run_supervised,
)
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.experiments.shardfile import canonical_cache_text

FAST = RunSettings(n_events=1500, footprint_scale=0.01, seed=3)

#: Two cells — enough for input-order checks without burning CI time.
SMALL = SweepSpec.build(benchmarks=["mcf"],
                       architectures=["i-fam", "deact-n"])
#: Four cells for the determinism/recovery matrix.
WIDE = SweepSpec.build(benchmarks=["mcf", "canl"],
                      architectures=["i-fam", "deact-n"])


def small_jobs():
    return [job for _cell, job in SMALL.jobs(FAST)]


def _wait_until(done, timeout_s):
    deadline = time.monotonic() + timeout_s
    while not done() and time.monotonic() < deadline:
        time.sleep(0.05)
    return done()


def _exited(pid):
    """Whether process ``pid`` is gone, or a zombie nobody reaped."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


# ----------------------------------------------------------------------
# Config and backoff
# ----------------------------------------------------------------------
class TestConfig:
    def test_seeded_backoff_is_pure_and_bounded(self):
        delays = [retry_delay_s("key", a) for a in range(10)]
        assert delays == [retry_delay_s("key", a) for a in range(10)]
        assert all(0 < d <= BACKOFF_CAP_S * 1.5 for d in delays)
        # Different keys jitter differently (that is the point).
        assert retry_delay_s("key-a", 0) != retry_delay_s("key-b", 0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="retries"):
            SupervisorConfig(retries=-1).validate()
        with pytest.raises(ValueError, match="job_timeout_s"):
            SupervisorConfig(job_timeout_s=0).validate()

    def test_payload_ok_boundary(self):
        assert not payload_ok(None)
        assert not payload_ok("text")
        assert not payload_ok({"__fault__": "injected"})


# ----------------------------------------------------------------------
# Recovery paths (each failure kind, through the real pool)
# ----------------------------------------------------------------------
class TestRecovery:
    def test_raise_is_retried_to_success(self, faults):
        faults.add("raise", attempts=2)
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(retries=2))
        assert not run.report
        assert all(payload_ok(p) for p in run.payloads)

    def test_worker_crash_respawns_and_recovers(self, faults):
        faults.add("crash")
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(retries=2))
        assert not run.report
        assert all(payload_ok(p) for p in run.payloads)

    def test_corrupt_payload_is_rejected_and_retried(self, faults):
        faults.add("corrupt")
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(retries=1))
        assert not run.report
        assert all(payload_ok(p) for p in run.payloads)

    def test_hang_is_reaped_by_timeout(self, faults):
        faults.add("hang")
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(job_timeout_s=2.0, retries=1))
        assert not run.report
        assert all(payload_ok(p) for p in run.payloads)

    def test_quarantine_after_retry_budget(self, faults):
        faults.add("raise", match="mcf", attempts=99)
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(retries=1))
        assert len(run.report) == 2  # both mcf cells poisoned
        assert all(f.attempts == 2 for f in run.report.failures)
        assert all(f.kind == "error" for f in run.report.failures)
        assert run.payloads == [None, None]
        rendered = run.report.render()
        assert "failed permanently" in rendered
        assert "mcf" in rendered
        assert run.report.failures[0].attempts == 2

    def test_fail_fast_raises_with_salvage(self, faults):
        faults.add("raise", match="canl", attempts=99)
        jobs = [job for _cell, job in WIDE.jobs(FAST)]
        with pytest.raises(SweepFailure) as info:
            run_supervised(
                jobs, n_workers=2,
                config=SupervisorConfig(retries=0, fail_fast=True))
        # The exception still carries whatever completed first.
        assert info.value.report
        assert all(payload_ok(p)
                   for p in info.value.payloads.values())


# ----------------------------------------------------------------------
# Runner-level chaos determinism (the headline invariant)
# ----------------------------------------------------------------------
class TestChaosDeterminism:
    def test_recovered_cache_is_byte_identical(self, faults, tmp_path):
        clean = str(tmp_path / "clean.json")
        run_sweep(ExperimentRunner(FAST, cache_path=clean, jobs=2), WIDE)

        # Each rule fires once per matching job: crash -> respawn,
        # hang -> timeout reap, corrupt -> validation reject (the i-fam
        # cells fail twice, the crash or hang first).
        chaos = str(tmp_path / "chaos.json")
        faults.add("crash", match="mcf")
        faults.add("hang", match="canl")
        faults.add("corrupt", match="i-fam")
        runner = ExperimentRunner(
            FAST, cache_path=chaos, jobs=2,
            supervisor=SupervisorConfig(job_timeout_s=2.0, retries=3),
            checkpoint_every=1)
        results = run_sweep(runner, WIDE)
        assert runner.failures is None
        assert len(results) == 4
        assert canonical_cache_text(clean) == canonical_cache_text(chaos)

    def test_quarantined_cells_are_skipped(self, faults, tmp_path):
        cache = str(tmp_path / "partial.json")
        faults.add("raise", match="mcf", attempts=99)
        runner = ExperimentRunner(FAST, cache_path=cache, jobs=2,
                                  supervisor=SupervisorConfig(retries=0))
        results = run_sweep(runner, WIDE)
        assert len(results) == 2  # canl cells only
        assert runner.failures is not None and len(runner.failures) == 2
        # The healthy cells landed in the cache despite the failures.
        assert len(json.load(open(cache))) == 2

    def test_fail_fast_salvages_completed_cells(self, faults, tmp_path):
        cache = str(tmp_path / "salvage.json")
        faults.add("raise", match="canl", attempts=99)
        runner = ExperimentRunner(
            FAST, cache_path=cache, jobs=2,
            supervisor=SupervisorConfig(retries=0, fail_fast=True))
        with pytest.raises(SweepFailure):
            run_sweep(runner, WIDE)
        on_disk = json.load(open(cache))
        assert on_disk  # completed cells flushed before the abort
        assert all(payload_ok(p) for p in on_disk.values())

    def test_killed_sweep_resumes_byte_identical(self, faults, tmp_path,
                                                 capsys):
        # A sweep process dies (exit 13) just after its first
        # checkpoint lands on the cache; re-running the same sweep
        # resumes from that checkpoint and ends with the clean cache.
        spec = ["--benchmark", "mcf", "--benchmark", "canl",
                "--arch", "i-fam", "--arch", "deact-n",
                "--events", "1500", "--footprint-scale", "0.01",
                "--jobs", "2", "--checkpoint-every", "1"]
        resumed = str(tmp_path / "resume.json")

        def killed_sweep():
            replace = os.replace
            os.replace = lambda *paths: (replace(*paths), os._exit(13))
            main(["sweep", *spec, "--cache", resumed])

        killed = multiprocessing.get_context("fork").Process(
            target=killed_sweep)
        killed.start()
        # Poll the exit code: join() would also wait for the orphaned
        # workers, which inherit the child's sentinel pipe.
        assert _wait_until(lambda: killed.exitcode is not None, 120.0)
        assert killed.exitcode == 13
        assert 0 < len(json.load(open(resumed))) < 4

        # The dead sweep's workers notice they are orphaned and exit.
        workers = faults.pids()
        assert workers
        assert _wait_until(lambda: all(map(_exited, workers)), 5.0)

        assert main(["sweep", *spec, "--cache", resumed]) == 0
        clean = str(tmp_path / "clean.json")
        assert main(["sweep", *spec, "--cache", clean]) == 0
        capsys.readouterr()
        assert canonical_cache_text(clean) == canonical_cache_text(resumed)


# ----------------------------------------------------------------------
# Interrupts and checkpoint resume
# ----------------------------------------------------------------------
class TestInterruptAndResume:
    def test_interrupt_flushes_completed_to_cache(self, tmp_path):
        cache = str(tmp_path / "interrupted.json")
        fired = {"count": 0}

        def interrupt_after_two(done, total):
            fired["count"] = done
            if done == 2:
                raise KeyboardInterrupt

        runner = ExperimentRunner(FAST, cache_path=cache, jobs=2,
                                  progress=interrupt_after_two)
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(runner, WIDE)
        assert len(info.value.payloads) == 2
        on_disk = json.load(open(cache))
        assert len(on_disk) == 2
        assert all(payload_ok(p) for p in on_disk.values())

        # Resume: a fresh runner recalls the flushed cells and only
        # simulates the rest; the final cache matches a clean run.
        results = run_sweep(ExperimentRunner(FAST, cache_path=cache,
                                             jobs=2), WIDE)
        assert len(results) == 4
        clean = str(tmp_path / "clean.json")
        run_sweep(ExperimentRunner(FAST, cache_path=clean, jobs=2), WIDE)
        assert canonical_cache_text(cache) == canonical_cache_text(clean)

    def test_checkpoints_flush_every_result(self, tmp_path):
        cache = str(tmp_path / "ckpt.json")
        sizes = []

        def watch(done, total):
            sizes.append(len(json.load(open(cache)))
                         if os.path.exists(cache) else 0)

        runner = ExperimentRunner(FAST, cache_path=cache, jobs=2,
                                  progress=watch, checkpoint_every=1)
        run_sweep(runner, WIDE)
        # The cache grew during the run, not only at the end.
        assert sizes[-1] >= 3

    def test_sigterm_handler_installed_during_run(self):
        seen = {}

        def probe(index, payload):
            seen["handler"] = signal.getsignal(signal.SIGTERM)

        run_supervised(small_jobs()[:1], n_workers=1,
                       config=SupervisorConfig(), on_result=probe)
        assert callable(seen["handler"])
        assert seen["handler"] is not signal.SIG_DFL
        # ... and restored afterwards.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_sigterm_handler_is_one_shot(self):
        # Regression: ``timeout``/supervisors signal the whole process
        # group, so a *second* SIGTERM can land during the cleanup the
        # first one triggered.  The handler must disarm itself on first
        # delivery or the repeat aborts the bounded pool shutdown and
        # strands the interpreter in multiprocessing's atexit join.
        original = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _sigterm_as_interrupt():
                try:
                    os.kill(os.getpid(), signal.SIGTERM)
                    time.sleep(1.0)  # pragma: no cover - delivery races
                except KeyboardInterrupt:
                    assert (signal.getsignal(signal.SIGTERM)
                            is signal.SIG_IGN)
                    # The repeat is dropped, not raised.
                    os.kill(os.getpid(), signal.SIGTERM)
                    raise
        assert signal.getsignal(signal.SIGTERM) is original

    def test_shield_defers_signals_during_cleanup(self):
        original = signal.getsignal(signal.SIGTERM)
        with _shield_signals():
            # A signal landing mid-cleanup is dropped instead of
            # aborting the salvage flush / worker teardown.
            os.kill(os.getpid(), signal.SIGTERM)
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        assert signal.getsignal(signal.SIGTERM) is original
        assert signal.getsignal(signal.SIGINT) is not signal.SIG_IGN


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliSurface:
    SPEC = ["--benchmark", "mcf", "--arch", "i-fam", "--arch", "deact-n",
            "--events", "1500", "--footprint-scale", "0.01", "--seed", "3"]

    def test_sweep_recovers_under_inline_plan(self, faults, tmp_path,
                                              capsys):
        faults.add("raise", match="mcf")
        cache = str(tmp_path / "cli-chaos.json")
        code = main(["sweep", *self.SPEC, "--jobs", "2", "--cache", cache,
                     "--retries", "2"])
        assert code == 0
        assert len(json.load(open(cache))) == 2

    def test_sweep_quarantine_exits_nonzero_with_report(self, faults,
                                                        tmp_path, capsys):
        faults.add("raise", match="deact-n", attempts=99)
        cache = str(tmp_path / "cli-poison.json")
        code = main(["sweep", *self.SPEC, "--jobs", "2", "--cache", cache,
                     "--retries", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed permanently" in captured.err
        assert len(json.load(open(cache))) == 1  # healthy cell cached

    def test_bad_plan_and_flag_validation(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", *self.SPEC, "--retries", "-1"])
        with pytest.raises(SystemExit):
            main(["sweep", *self.SPEC, "--job-timeout", "0"])
        with pytest.raises(SystemExit):
            main(["sweep", *self.SPEC, "--checkpoint-every", "-5"])

    def test_cache_validate_repair(self, tmp_path, capsys):
        cache = str(tmp_path / "heal.json")
        assert main(["sweep", *self.SPEC, "--jobs", "1",
                     "--cache", cache]) == 0
        entries = json.load(open(cache))
        victim = sorted(entries)[0]
        entries[victim] = {"garbage": True}
        entries["orphan-key"] = {"also": "garbage"}
        json.dump(entries, open(cache, "w"))
        open(f"{cache}.tmp.deadhost.1234", "w").write("{")

        code = main(["cache", "validate", "--cache", cache, "--repair",
                     *self.SPEC])
        captured = capsys.readouterr()
        assert code == 1  # repaired, but a cell is now missing
        assert "quarantined" in captured.out
        assert "1 dead temp file(s) removed" in captured.out
        assert not os.path.exists(f"{cache}.tmp.deadhost.1234")
        healed = json.load(open(cache))
        assert victim not in healed and "orphan-key" not in healed
        quarantine = str(tmp_path / "heal.quarantine.json")
        assert set(json.load(open(quarantine))) \
            == {victim, "orphan-key"}

        # Re-sweeping fills the hole; validate then passes.
        assert main(["sweep", *self.SPEC, "--jobs", "1",
                     "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "validate", "--cache", cache,
                     *self.SPEC]) == 0
