"""Deterministic fault injection for the supervised sweep layer.

Chaos testing is only worth anything here if it is *reproducible*: the
paper-grade invariant the sweep pipeline promises is that a run
recovered through retries, worker respawns, and torn-write salvage
produces a results cache **byte-identical** to a clean run.  Asserting
that in CI requires the faults themselves to be a pure function of
(plan, job key, attempt number) — never of wall clock, pids, or
scheduling order.  Everything in this module is seeded accordingly.

A *fault plan* is a small JSON document::

    {"schema": 1, "seed": 11, "faults": [
        {"kind": "crash",  "match": "mcf",   "attempts": 1},
        {"kind": "hang",   "match": "canl",  "attempts": 1, "pick": 0.5},
        {"kind": "corrupt", "match": "i-fam", "attempts": 1},
        {"kind": "torn-write", "attempts": 1, "at_byte": 40}]}

Each rule selects jobs by substring ``match`` against the on-disk
cache key (benchmark, architecture, and variant parameters all appear
in it), optionally thinned to a deterministic ``pick`` fraction via a
seeded hash, and fires on the first ``attempts`` executions of each
selected job.  Execution kinds:

``raise``
    the worker raises :class:`~repro.errors.FaultInjected`;
``crash``
    the worker dies with ``os._exit`` — no exception, no result
    message, exactly like a segfault;
``hang``
    the worker sleeps ``hang_s`` — only a supervisor wall-clock
    timeout gets the job back;
``corrupt``
    the worker returns a structurally invalid payload, which the
    supervisor's payload validation must catch and retry.

``torn-write`` is different: it fires at *cache write* time (in
whichever process performs the write) through the hook points in
:mod:`repro.experiments.cachefile`, killing the writer after
``at_byte`` bytes of the temp file (``stage="partial"``), after the
full write but before ``os.replace`` (``"before-replace"``), or just
after the replace (``"after-replace"``).  Because the writer process
dies for real, attempt counting for write faults persists in a
``state_dir`` of marker files so a *resumed* run does not re-tear —
which is precisely what lets CI kill a sweep mid-checkpoint and assert
the resume completes identically.

Plans travel to CLI runs via ``--inject-faults`` or the
``REPRO_FAULT_PLAN`` environment variable (a path, or inline JSON),
and to pool workers as a pickled :class:`FaultPlan` argument.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError, FaultInjected
from repro.experiments import cachefile
from repro.experiments.runner import SweepJob, execute_job, job_key

__all__ = [
    "ENV_FAULT_PLAN",
    "EXECUTION_KINDS",
    "FAULT_KINDS",
    "WRITE_STAGES",
    "CRASH_EXIT_CODE",
    "FaultPlan",
    "FaultRule",
    "activate",
    "active_plan",
    "deactivate",
    "corrupt_payload",
    "execution_fault",
    "install_torn_write_hook",
    "load_fault_plan",
    "plan_from_env",
    "run_with_faults",
]

#: Environment variable carrying a fault plan (a JSON file path, or
#: inline JSON starting with ``{``) into CLI/worker processes.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Exit code of a deliberately crashed process — distinct from Python
#: tracebacks (1) and argparse (2) so the supervisor's failure report
#: and the chaos CI job can tell an injected death from a real bug.
CRASH_EXIT_CODE = 13

EXECUTION_KINDS = ("raise", "crash", "hang", "corrupt")
WRITE_KINDS = ("torn-write",)
FAULT_KINDS = EXECUTION_KINDS + WRITE_KINDS
WRITE_STAGES = ("partial", "before-replace", "after-replace")

PLAN_SCHEMA = 1


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: what to break, where, and how often."""

    kind: str
    match: str = ""          # substring of the job key (or cache path)
    attempts: int = 1        # fail the first N attempts of each target
    pick: float = 1.0        # deterministic fraction of matches to hit
    hang_s: float = 3600.0   # sleep length for ``hang``
    at_byte: int = 0         # torn-write: temp-file bytes before death
    stage: str = "partial"   # torn-write: where in the write to die

    def validate(self) -> "FaultRule":
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        if self.attempts < 1:
            raise ConfigError(
                f"fault attempts must be >= 1, got {self.attempts}")
        if not 0.0 < self.pick <= 1.0:
            raise ConfigError(
                f"fault pick must be in (0, 1], got {self.pick}")
        if self.kind == "torn-write" and self.stage not in WRITE_STAGES:
            raise ConfigError(
                f"unknown torn-write stage {self.stage!r}; expected one "
                f"of {', '.join(WRITE_STAGES)}")
        if self.at_byte < 0:
            raise ConfigError(
                f"fault at_byte must be >= 0, got {self.at_byte}")
        return self


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of :class:`FaultRule` entries.

    ``state_dir`` holds the cross-process attempt markers write faults
    need (a killed writer cannot remember in memory that it already
    fired); execution faults never touch it — their attempt number is
    handed in by the supervisor, which is already deterministic.
    """

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)
    seed: int = 0
    state_dir: Optional[str] = None

    def validate(self) -> "FaultPlan":
        for rule in self.rules:
            rule.validate()
        if self.write_rules() and self.state_dir is None:
            raise ConfigError(
                "fault plans with torn-write rules need a state_dir for "
                "cross-process attempt counting (plans loaded from a "
                "file default it to <plan>.state)")
        return self

    def execution_rules(self) -> Tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.kind in EXECUTION_KINDS)

    def write_rules(self) -> Tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.kind in WRITE_KINDS)

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "seed": self.seed,
            "state_dir": self.state_dir,
            "faults": [
                {"kind": r.kind, "match": r.match, "attempts": r.attempts,
                 "pick": r.pick, "hang_s": r.hang_s, "at_byte": r.at_byte,
                 "stage": r.stage}
                for r in self.rules
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigError("fault plan must be a JSON object")
        if data.get("schema", PLAN_SCHEMA) != PLAN_SCHEMA:
            raise ConfigError(
                f"fault plan has schema {data.get('schema')!r}, expected "
                f"{PLAN_SCHEMA}")
        raw_rules = data.get("faults", [])
        if not isinstance(raw_rules, list):
            raise ConfigError("fault plan 'faults' must be a list")
        rules = []
        for raw in raw_rules:
            if not isinstance(raw, dict) or "kind" not in raw:
                raise ConfigError(
                    f"each fault rule needs at least a 'kind': {raw!r}")
            try:
                rules.append(FaultRule(
                    kind=str(raw["kind"]),
                    match=str(raw.get("match", "")),
                    attempts=int(raw.get("attempts", 1)),
                    pick=float(raw.get("pick", 1.0)),
                    hang_s=float(raw.get("hang_s", 3600.0)),
                    at_byte=int(raw.get("at_byte", 0)),
                    stage=str(raw.get("stage", "partial")),
                ).validate())
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad fault rule {raw!r}: {exc}") from exc
        state_dir = data.get("state_dir")
        return cls(rules=tuple(rules), seed=int(data.get("seed", 0)),
                   state_dir=str(state_dir) if state_dir else None)


def load_fault_plan(spec: str) -> FaultPlan:
    """A plan from inline JSON (starts with ``{``) or a JSON file path.

    File-loaded plans with write faults default ``state_dir`` to
    ``<plan-path>.state`` next to the plan, so the canned CI plans need
    no extra configuration to survive writer death and resume.
    """
    text = spec
    source = "<inline>"
    if not spec.lstrip().startswith("{"):
        source = spec
        try:
            with open(spec) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read fault plan {spec}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"fault plan {source} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and source != "<inline>" \
            and not data.get("state_dir"):
        data = dict(data, state_dir=f"{os.path.abspath(source)}.state")
    return FaultPlan.from_dict(data).validate()


def plan_from_env(environ: Optional[Dict[str, str]] = None) \
        -> Optional[FaultPlan]:
    """The plan named by ``$REPRO_FAULT_PLAN``, if any."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_FAULT_PLAN, "").strip()
    if not raw:
        return None
    return load_fault_plan(raw)


# ----------------------------------------------------------------------
# Deterministic selection
# ----------------------------------------------------------------------
def _picked(rule: FaultRule, seed: int, key: str) -> bool:
    """Whether ``rule`` selects ``key`` — a pure hash of (seed, rule,
    key), identical in every process on every host."""
    if rule.pick >= 1.0:
        return True
    digest = hashlib.sha256(
        f"{seed}|{rule.kind}|{rule.match}|{key}".encode("utf-8")).digest()
    draw = int.from_bytes(digest[:8], "big") % 1_000_000
    return draw < int(rule.pick * 1_000_000)


def execution_fault(plan: Optional[FaultPlan], key: str,
                    attempt: int) -> Optional[FaultRule]:
    """The first execution rule firing for ``key`` at ``attempt``."""
    if plan is None:
        return None
    for rule in plan.execution_rules():
        if rule.match and rule.match not in key:
            continue
        if attempt >= rule.attempts:
            continue
        if not _picked(rule, plan.seed, key):
            continue
        return rule
    return None


def corrupt_payload() -> dict:
    """A payload that must fail the supervisor's structural validation
    (it has none of a serialized :class:`RunResult`'s fields)."""
    return {"__fault__": "corrupt payload (injected)"}


# ----------------------------------------------------------------------
# Execution-side injection
# ----------------------------------------------------------------------
#: The plan activated in this process (workers activate the plan they
#: are handed; the CLI activates ``--inject-faults``/$REPRO_FAULT_PLAN).
_ACTIVE_PLAN: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE_PLAN


def activate(plan: FaultPlan) -> None:
    """Activate ``plan`` in this process: execution faults apply to
    :func:`run_with_faults`, and write faults hook the atomic cache
    writer."""
    global _ACTIVE_PLAN
    plan.validate()
    _ACTIVE_PLAN = plan
    if plan.write_rules():
        cachefile._WRITE_FAULT_HOOK = _plan_write_hook(plan)


def deactivate() -> None:
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = None
    cachefile._WRITE_FAULT_HOOK = None


def run_with_faults(job: SweepJob, attempt: int,
                    plan: Optional[FaultPlan] = None) -> dict:
    """Execute one job, first consulting the fault plan for this
    (job, attempt).  With no plan (the default outside chaos runs) this
    is exactly :func:`~repro.experiments.runner.execute_job`."""
    plan = _ACTIVE_PLAN if plan is None else plan
    rule = execution_fault(plan, job_key(job), attempt)
    if rule is not None:
        if rule.kind == "raise":
            raise FaultInjected(
                f"injected failure for {job.benchmark}/{job.architecture} "
                f"attempt {attempt}")
        if rule.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if rule.kind == "hang":
            time.sleep(rule.hang_s)
            raise FaultInjected(
                f"injected hang for {job.benchmark}/{job.architecture} "
                f"outlived its {rule.hang_s:.0f}s sleep (no supervisor "
                f"timeout reaped it)")
        if rule.kind == "corrupt":
            return corrupt_payload()
    return execute_job(job)


# ----------------------------------------------------------------------
# Write-side injection (torn cache writes)
# ----------------------------------------------------------------------
def _claim_attempt(state_dir: str, token: str, max_attempts: int) \
        -> Optional[int]:
    """Atomically claim the next attempt slot for ``token``.

    ``O_EXCL`` marker files make the count race-safe across processes
    and — the important part — durable across the writer's own death,
    so a resumed run sees the fault as already spent.
    """
    os.makedirs(state_dir, exist_ok=True)
    for attempt in range(max_attempts):
        marker = os.path.join(state_dir, f"{token}.attempt-{attempt}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return attempt
    return None


def _tear(stage: str, phase: str, text: str, handle, at_byte: int) -> None:
    """Die at the configured point of the tmp+rename sequence.

    ``phase`` is where the hook was called from (``pre`` = before the
    temp-file write, ``post`` = after ``os.replace``); ``stage`` is
    where the rule wants to die.  ``os._exit`` skips all cleanup — the
    temp file is deliberately left behind, exactly like a kill -9.
    """
    if stage == "partial" and phase == "pre":
        handle.write(text[:at_byte])
        handle.flush()
        os._exit(CRASH_EXIT_CODE)
    if stage == "before-replace" and phase == "pre":
        handle.write(text)
        handle.flush()
        os._exit(CRASH_EXIT_CODE)
    if stage == "after-replace" and phase == "post":
        os._exit(CRASH_EXIT_CODE)


def _plan_write_hook(plan: FaultPlan):
    """The cachefile hook applying ``plan``'s torn-write rules."""

    def hook(phase: str, path: str, text: str, handle) -> None:
        for index, rule in enumerate(plan.write_rules()):
            if rule.match and rule.match not in path:
                continue
            if not _picked(rule, plan.seed, os.path.basename(path)):
                continue
            token = hashlib.sha256(
                f"{index}|{rule.kind}|{rule.match}|{rule.stage}"
                .encode("utf-8")).hexdigest()[:16]
            # after-replace needs its marker claimed at the pre phase
            # (claiming at post would double-claim: pre runs first) —
            # remember the claim on the closure for the post call.
            if phase == "pre":
                claimed = _claim_attempt(plan.state_dir, token,
                                         rule.attempts)
                if claimed is None:
                    continue
                _pending_post[0] = rule if rule.stage == "after-replace" \
                    else None
                _tear(rule.stage, phase, text, handle, rule.at_byte)
            elif phase == "post" and _pending_post[0] is rule:
                _pending_post[0] = None
                _tear(rule.stage, phase, text, handle, rule.at_byte)

    _pending_post: list = [None]
    return hook


def install_torn_write_hook(cut: int) -> None:
    """Test helper: kill the *next* atomic JSON write at byte ``cut``.

    ``cut`` in ``0..len(text)`` tears the temp-file write after that
    many bytes; ``len(text) + 1`` dies after the full write but before
    ``os.replace``; anything larger dies just after the replace.  Used
    by the torn-write property suite, which sweeps every offset.
    """

    def hook(phase: str, path: str, text: str, handle) -> None:
        if cut <= len(text):
            _tear("partial", phase, text, handle, cut)
        elif cut == len(text) + 1:
            _tear("before-replace", phase, text, handle, cut)
        else:
            _tear("after-replace", phase, text, handle, cut)

    cachefile._WRITE_FAULT_HOOK = hook
