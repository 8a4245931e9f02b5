"""DET001 — no nondeterminism sources in canonical-write modules.

The result cache and everything under ``repro.core`` promise
*byte-identical* output for identical inputs: cache merges treat
differing payloads for the same run key as corruption
(:class:`repro.errors.CacheMergeConflict`).  A single ``time.time()``
or unseeded ``random.random()`` feeding those writes breaks the
promise silently, often only surfacing weeks later as an unexplained
merge conflict.

In scope: ``repro.core.*`` plus the canonical-write experiment module
``repro.experiments.cachefile``.
Flagged inside those modules:

* wall-clock reads: ``time.time``/``time.time_ns``,
  ``datetime.now``/``utcnow``/``today`` (``time.monotonic`` is fine —
  it is used for deadlines and never serialized);
* entropy: ``os.urandom``, ``uuid.uuid1``/``uuid4``, ``secrets.*``;
* unseeded randomness: module-level ``random.*`` calls, and
  ``random.Random()`` with no seed argument (``random.Random(seed)``
  is the sanctioned pattern);
* ``json.dump``/``json.dumps`` without ``sort_keys=True`` (skipped
  when the call forwards ``**kwargs`` — the sort flag may travel in
  it, as in ``write_json_atomic``);
* iterating a set display or bare ``set()``/``frozenset()`` call in a
  ``for`` or comprehension without ``sorted(...)`` around it.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis import astutil
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule

__all__ = ["Determinism"]

#: Dotted call names that read wall clocks or entropy pools.
BANNED_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
})

IN_SCOPE_MODULES = frozenset({
    "repro.experiments.cachefile",
})
IN_SCOPE_PREFIX = "repro.core"


def in_scope(module_name: str) -> bool:
    if module_name in IN_SCOPE_MODULES:
        return True
    return module_name == IN_SCOPE_PREFIX \
        or module_name.startswith(IN_SCOPE_PREFIX + ".")


def _is_unsorted_set_expr(node: ast.AST) -> bool:
    """A set display or bare ``set()``/``frozenset()`` call."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        name = astutil.dotted_name(node)
        return name in ("set", "frozenset")
    return False


class Determinism(Rule):
    id = "DET001"
    title = "nondeterminism source in a canonical-write module"
    severity = "error"
    hint = ("thread a seeded random.Random(seed) / explicit timestamp in "
            "from the caller, pass sort_keys=True to json.dump, or wrap "
            "the set in sorted(...) before iterating")

    def check_module(self, module, project) -> Iterable[Finding]:
        if not in_scope(module.name):
            return []
        findings: List[Finding] = []
        symbols = astutil.qualname_map(module.tree)

        def emit(node: ast.AST, message: str) -> None:
            findings.append(self.finding(
                module, node.lineno, node.col_offset,
                symbols.get(id(node), ""), message))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = astutil.dotted_name(node)
                if name is None:
                    continue
                if name in BANNED_CALLS:
                    emit(node, f"call to {name}() is nondeterministic")
                elif name.startswith("secrets."):
                    emit(node, f"call to {name}() draws from the "
                               f"entropy pool")
                elif name == "random.Random":
                    if not node.args and not node.keywords:
                        emit(node, "random.Random() without a seed is "
                                   "nondeterministic")
                elif name.startswith("random."):
                    emit(node, f"module-level {name}() uses the shared "
                               f"unseeded RNG")
                elif name in ("json.dump", "json.dumps"):
                    keywords = astutil.keyword_map(node)
                    if None in keywords:
                        continue  # **kwargs may carry sort_keys
                    sort_keys = keywords.get("sort_keys")
                    if not (isinstance(sort_keys, ast.Constant)
                            and sort_keys.value is True):
                        emit(node, f"{name}() without sort_keys=True "
                                   f"makes output key-order dependent")
            elif isinstance(node, ast.For):
                if _is_unsorted_set_expr(node.iter):
                    emit(node.iter, "iterating a set without sorted() "
                                    "has no stable order")
            elif isinstance(node, ast.comprehension):
                if _is_unsorted_set_expr(node.iter):
                    emit(node.iter, "iterating a set without sorted() "
                                    "has no stable order")
        return findings
