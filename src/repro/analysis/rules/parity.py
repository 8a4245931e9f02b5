"""PAR001 — tier-parity surfaces must stay in sync.

The production path is only trustworthy because the white-box
reference path (:mod:`repro.core.refpath`) re-derives every fast-path
probe independently, and because the deliberately duplicated
``NodeMetrics`` serialization mirrors its single source of truth.
Nothing at runtime checks those mirrors — a renamed fast probe or a
field added to ``NodeMetrics`` but not to ``_result_to_dict`` ships
silently and only shows up as an equivalence-suite failure (or worse,
a cache round-trip that drops data).  This rule re-checks the mirrors
on every ``deact check``:

* every ``*_fast`` function must have a :mod:`repro.core.refpath`
  counterpart (matched by sharing a name token of >= 4 chars, so
  ``walk_system_table_fast`` pairs with ``_ref_stu_walk`` via
  ``walk`` without hard-coding the pairing table);
* the ``NodeMetrics`` dataclass fields, the keyword arguments of the
  ``NodeMetrics(...)`` construction in ``Node.metrics``, and the
  per-node dict keys in ``runner._result_to_dict`` must be the same
  set (this is what makes ``NodeMetrics(**n)`` deserialization total).

Each sub-check only runs when its anchor modules are present in the
scanned tree, so the rule degrades gracefully on partial trees (test
fixtures).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import astutil
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule

__all__ = ["TierParity"]

REFPATH_MODULE = "repro.core.refpath"
RESULTS_MODULE = "repro.core.results"
NODE_MODULE = "repro.core.node"
RUNNER_MODULE = "repro.experiments.runner"

#: Minimum token length for fast<->refpath name matching; shorter
#: tokens ("l1", "to", "do") match everything and prove nothing.
MIN_TOKEN = 4


def _tokens(fast_name: str) -> Set[str]:
    stem = fast_name[:-len("_fast")] if fast_name.endswith("_fast") \
        else fast_name
    stem = stem.lstrip("_")
    return {t for t in stem.split("_") if len(t) >= MIN_TOKEN}


def _dataclass_fields(tree: ast.Module, class_name: str) -> Optional[
        Tuple[Tuple[str, ...], int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = tuple(
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name))
            return fields, node.lineno
    return None


def _constructor_keywords(tree: ast.Module, class_name: str) -> Optional[
        Tuple[Tuple[str, ...], int]]:
    """Keywords of the first keyword-only ``ClassName(...)`` call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = astutil.dotted_name(node)
        if name is None or name.split(".")[-1] != class_name:
            continue
        if node.args or astutil.has_double_star(node):
            continue
        keys = tuple(kw.arg for kw in node.keywords if kw.arg)
        if keys:
            return keys, node.lineno
    return None


def _dict_keys_containing(tree: ast.Module, func_name: str,
                          marker: str) -> Optional[Tuple[Tuple[str, ...],
                                                         int]]:
    """String keys of the dict display inside ``func_name`` that has
    ``marker`` among its keys."""
    for qualname, func in astutil.function_defs(tree):
        if qualname.rsplit(".", 1)[-1] != func_name:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Dict):
                continue
            keys = tuple(
                k.value for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str))
            if marker in keys:
                return keys, node.lineno
    return None


class TierParity(Rule):
    id = "PAR001"
    title = "tier-parity surface drifted between files"
    severity = "error"
    hint = ("update both sides of the mirror together: add the refpath "
            "counterpart for a new *_fast probe, and keep the "
            "NodeMetrics fields / Node.metrics() keywords / "
            "_result_to_dict keys identical")

    def check_project(self, project) -> Iterable[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_fast_counterparts(project))
        findings.extend(self._check_metrics_roundtrip(project))
        return findings

    # -- *_fast <-> refpath ----------------------------------------------
    def _check_fast_counterparts(self, project) -> Iterable[Finding]:
        refpath = project.modules.get(REFPATH_MODULE)
        if refpath is None:
            return []
        ref_names: Set[str] = set()
        for qualname, _func in astutil.function_defs(refpath.tree):
            ref_names.add(qualname.rsplit(".", 1)[-1])
        ref_tokens: Set[str] = set()
        for name in ref_names:
            ref_tokens.update(_tokens(name))

        findings: List[Finding] = []
        for module in project.modules.values():
            if module.name == REFPATH_MODULE:
                continue
            for qualname, func in astutil.function_defs(module.tree):
                short = qualname.rsplit(".", 1)[-1]
                if not short.endswith("_fast"):
                    continue
                if _tokens(short) & ref_tokens:
                    continue
                findings.append(self.finding(
                    module, func.lineno, func.col_offset, qualname,
                    f"fast-path probe {short}() has no counterpart in "
                    f"{REFPATH_MODULE} (no shared name token); the "
                    f"reference tier cannot cross-check it"))
        return findings

    # -- NodeMetrics serialization round-trip ----------------------------
    def _check_metrics_roundtrip(self, project) -> Iterable[Finding]:
        results = project.modules.get(RESULTS_MODULE)
        if results is None:
            return []
        declared = _dataclass_fields(results.tree, "NodeMetrics")
        if declared is None:
            return []
        want = set(declared[0])
        findings: List[Finding] = []

        surfaces: List[Tuple[object, str, Optional[Tuple[Tuple[str, ...],
                                                         int]]]] = []
        node = project.modules.get(NODE_MODULE)
        if node is not None:
            surfaces.append((node, "NodeMetrics(...) keywords in "
                                   "Node.metrics()",
                             _constructor_keywords(node.tree,
                                                   "NodeMetrics")))
        runner = project.modules.get(RUNNER_MODULE)
        if runner is not None:
            surfaces.append((runner, "_result_to_dict() per-node keys",
                             _dict_keys_containing(runner.tree,
                                                   "_result_to_dict",
                                                   "node_id")))

        for module, label, got in surfaces:
            if got is None:
                continue
            have = set(got[0])
            missing = sorted(want - have)
            extra = sorted(have - want)
            if missing or extra:
                detail = []
                if missing:
                    detail.append(f"missing {missing}")
                if extra:
                    detail.append(f"extra {extra}")
                findings.append(self.finding(
                    module, got[1], -1, "",
                    f"{label} drifted from NodeMetrics fields: "
                    f"{'; '.join(detail)}"))
        return findings
