"""Supervised execution: retries, timeouts, quarantine, chaos
determinism, interrupt salvage, and checkpoint resume.

The paper-grade invariant under test throughout: a sweep that limps
through injected crashes, hangs, and corrupt payloads produces a
results cache **byte-identical** (``canonical_cache_text``) to a
clean run — recovery is scheduling noise, never result noise.
"""

import json
import os
import signal
import time

import pytest

from repro.errors import ConfigError, SweepFailure, SweepInterrupted
from repro.experiments import faults
from repro.experiments.faults import FaultPlan, FaultRule, load_fault_plan
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


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """No test may leave a fault plan (or write hook) active."""
    yield
    faults.deactivate()


def plan(*rules, seed=7, state_dir=None):
    return FaultPlan(rules=tuple(rules), seed=seed, state_dir=state_dir)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlans:
    def test_inline_and_file_round_trip(self, tmp_path):
        data = {"schema": 1, "seed": 11, "faults": [
            {"kind": "crash", "match": "mcf", "attempts": 2}]}
        inline = load_fault_plan(json.dumps(data))
        assert inline.seed == 11
        assert inline.rules[0].kind == "crash"
        assert inline.rules[0].attempts == 2
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        from_file = load_fault_plan(str(path))
        assert from_file.rules == inline.rules
        # File plans get a default state dir next to the plan.
        assert from_file.state_dir == f"{path}.state"

    def test_bad_plans_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_fault_plan("{nope")
        with pytest.raises(ConfigError, match="cannot read fault plan"):
            load_fault_plan(str(tmp_path / "missing.json"))
        with pytest.raises(ConfigError, match="unknown fault kind"):
            load_fault_plan('{"faults": [{"kind": "meteor"}]}')
        with pytest.raises(ConfigError, match="pick must be in"):
            load_fault_plan('{"faults": [{"kind": "raise", "pick": 0}]}')
        # Inline torn-write plans must name a state dir explicitly.
        with pytest.raises(ConfigError, match="state_dir"):
            load_fault_plan('{"faults": [{"kind": "torn-write"}]}')

    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            '{"seed": 2, "faults": [{"kind": "raise", "match": "x"}]}')
        env_plan = faults.plan_from_env()
        assert env_plan is not None and env_plan.seed == 2
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert faults.plan_from_env() is None

    def test_pick_is_deterministic_and_thins(self):
        rule = FaultRule(kind="raise", pick=0.5)
        keys = [f"job-{i}" for i in range(200)]
        hit = [k for k in keys
               if faults.execution_fault(plan(rule), k, 0) is not None]
        # Same plan, same keys -> same picks, and roughly half hit.
        again = [k for k in keys
                 if faults.execution_fault(plan(rule), k, 0) is not None]
        assert hit == again
        assert 40 < len(hit) < 160

    def test_attempts_gate_when_faults_fire(self):
        rule = FaultRule(kind="raise", attempts=2)
        p = plan(rule)
        assert faults.execution_fault(p, "k", 0) is rule
        assert faults.execution_fault(p, "k", 1) is rule
        assert faults.execution_fault(p, "k", 2) is None


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
        assert not payload_ok(faults.corrupt_payload())


# ----------------------------------------------------------------------
# Recovery paths (each failure kind, through the real pool)
# ----------------------------------------------------------------------
class TestRecovery:
    def test_raise_is_retried_to_success(self):
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(retries=2),
            fault_plan=plan(FaultRule(kind="raise", attempts=2)))
        assert not run.report
        assert all(payload_ok(p) for p in run.payloads)

    def test_worker_crash_respawns_and_recovers(self):
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(retries=2),
            fault_plan=plan(FaultRule(kind="crash", attempts=1)))
        assert not run.report
        assert all(payload_ok(p) for p in run.payloads)

    def test_corrupt_payload_is_rejected_and_retried(self):
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(retries=1),
            fault_plan=plan(FaultRule(kind="corrupt", attempts=1)))
        assert not run.report
        assert all(payload_ok(p) for p in run.payloads)

    def test_hang_is_reaped_by_timeout(self):
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(job_timeout_s=2.0, retries=1),
            fault_plan=plan(FaultRule(kind="hang", attempts=1,
                                      hang_s=300.0)))
        assert not run.report
        assert all(payload_ok(p) for p in run.payloads)

    def test_quarantine_after_retry_budget(self):
        run = run_supervised(
            small_jobs(), n_workers=2,
            config=SupervisorConfig(retries=1),
            fault_plan=plan(FaultRule(kind="raise", match="mcf",
                                      attempts=99)))
        assert len(run.report) == 2  # both mcf cells poisoned
        assert all(f.attempts == 2 for f in run.report.failures)
        assert all(f.kind == "error" for f in run.report.failures)
        assert run.payloads == [None, None]
        rendered = run.report.render()
        assert "failed permanently" in rendered
        assert "mcf" in rendered
        assert run.report.failures[0].attempts == 2

    def test_fail_fast_raises_with_salvage(self):
        jobs = [job for _cell, job in WIDE.jobs(FAST)]
        with pytest.raises(SweepFailure) as info:
            run_supervised(
                jobs, n_workers=2,
                config=SupervisorConfig(retries=0, fail_fast=True),
                fault_plan=plan(FaultRule(kind="raise", match="canl",
                                          attempts=99)))
        # The exception still carries whatever completed first.
        assert info.value.report
        assert all(payload_ok(p)
                   for p in info.value.payloads.values())


# ----------------------------------------------------------------------
# Runner-level chaos determinism (the headline invariant)
# ----------------------------------------------------------------------
class TestChaosDeterminism:
    def test_recovered_cache_is_byte_identical(self, tmp_path):
        clean = str(tmp_path / "clean.json")
        run_sweep(ExperimentRunner(FAST, cache_path=clean, jobs=2), WIDE)

        chaos = str(tmp_path / "chaos.json")
        faults.activate(plan(
            FaultRule(kind="crash", match="mcf", attempts=1),
            FaultRule(kind="raise", match="canl", attempts=2),
            FaultRule(kind="corrupt", match="i-fam", attempts=1)))
        runner = ExperimentRunner(FAST, cache_path=chaos, jobs=2,
                                  supervisor=SupervisorConfig(),
                                  checkpoint_every=1)
        results = run_sweep(runner, WIDE)
        assert runner.failures is None
        assert len(results) == 4
        assert canonical_cache_text(clean) == canonical_cache_text(chaos)

    def test_quarantined_cells_are_skipped(self, tmp_path):
        cache = str(tmp_path / "partial.json")
        faults.activate(plan(FaultRule(kind="raise", match="mcf",
                                       attempts=99)))
        runner = ExperimentRunner(FAST, cache_path=cache, jobs=2,
                                  supervisor=SupervisorConfig(retries=0))
        results = run_sweep(runner, WIDE)
        assert len(results) == 2  # canl cells only
        assert runner.failures is not None and len(runner.failures) == 2
        # The healthy cells landed in the cache despite the failures.
        assert len(json.load(open(cache))) == 2

    def test_fail_fast_salvages_completed_cells(self, tmp_path):
        cache = str(tmp_path / "salvage.json")
        faults.activate(plan(FaultRule(kind="raise", match="canl",
                                       attempts=99)))
        runner = ExperimentRunner(
            FAST, cache_path=cache, jobs=2,
            supervisor=SupervisorConfig(retries=0, fail_fast=True))
        with pytest.raises(SweepFailure):
            run_sweep(runner, WIDE)
        on_disk = json.load(open(cache))
        assert on_disk  # completed cells flushed before the abort
        assert all(payload_ok(p) for p in on_disk.values())


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

    def test_sweep_recovers_under_inline_plan(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cli-chaos.json")
        code = main(["sweep", *self.SPEC, "--jobs", "2", "--cache", cache,
                     "--retries", "2", "--inject-faults",
                     '{"seed": 5, "faults": '
                     '[{"kind": "raise", "match": "mcf", "attempts": 1}]}'])
        assert code == 0
        assert len(json.load(open(cache))) == 2

    def test_sweep_quarantine_exits_nonzero_with_report(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        cache = str(tmp_path / "cli-poison.json")
        code = main(["sweep", *self.SPEC, "--jobs", "2", "--cache", cache,
                     "--retries", "0", "--inject-faults",
                     '{"faults": '
                     '[{"kind": "raise", "match": "deact-n", '
                     '"attempts": 99}]}'])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed permanently" in captured.err
        assert len(json.load(open(cache))) == 1  # healthy cell cached

    def test_bad_plan_and_flag_validation(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", *self.SPEC, "--inject-faults", "{nope"])
        with pytest.raises(SystemExit):
            main(["sweep", *self.SPEC, "--retries", "-1"])
        with pytest.raises(SystemExit):
            main(["sweep", *self.SPEC, "--job-timeout", "0"])
        with pytest.raises(SystemExit):
            main(["sweep", *self.SPEC, "--checkpoint-every", "-5"])

    def test_cache_validate_repair(self, tmp_path, capsys):
        from repro.cli import main

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
