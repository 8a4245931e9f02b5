"""Static invariant checking for the ``repro`` source tree.

The repo's correctness story rests on contracts that the expensive
equivalence suites only catch *after* a violation ships: the
production path must stay bit-identical to its refpath oracle,
canonical cache writes must be byte-deterministic across hosts, the
``*_fast`` probe paths must stay allocation-free, and everything
crossing the sweep pool boundary must pickle.  This package enforces
those contracts at diff time by walking the :mod:`ast` of every
module under ``src/repro`` — the same way sanitizer/lint wiring
protects production simulator stacks.

Entry point: ``deact check`` (see :mod:`repro.cli`), or
:func:`run_check` programmatically::

    from repro.analysis import run_check
    report = run_check()          # scans the installed repro package
    print(report.render_table())

Shipped rules (each a registered class in
:mod:`repro.analysis.rules`):

========  ==========================================================
DET001    no nondeterminism sources in canonical-write modules
HOT001    no allocating constructs in ``@hot_path`` / ``*_fast`` code
PAR001    tier-parity surfaces (fast vs. refpath, ``NodeMetrics``
          serialization round-trip)
PKL001    pool submit sites take module-level callables only
CFG001    config dataclasses frozen and fully annotated
DEF001    no mutable default arguments
EXC001    no bare ``except:`` clauses
ROB001    result-wait sites in supervised-execution modules bounded
========  ==========================================================

Findings can be suppressed inline (``# deact: allow(RULE)`` on the
offending line) or grandfathered in ``analysis-baseline.toml`` so the
gate lands strict while known debt is burned down.
"""

from __future__ import annotations

from repro.analysis.baseline import (
    Baseline,
    default_baseline_path,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import CheckReport, Project, run_check, scan_project
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, all_rules, get_rule

# Importing the rule modules registers their rule classes.
from repro.analysis.rules import (  # noqa: F401  (registration imports)
    configs as _configs,
    determinism as _determinism,
    hotpath as _hotpath,
    hygiene as _hygiene,
    parity as _parity,
    pickling as _pickling,
    robustness as _robustness,
)

__all__ = [
    "Baseline",
    "CheckReport",
    "Finding",
    "Project",
    "Rule",
    "all_rules",
    "default_baseline_path",
    "get_rule",
    "load_baseline",
    "run_check",
    "scan_project",
    "write_baseline",
]
