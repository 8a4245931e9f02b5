"""CFG001 — config dataclasses must be frozen and fully annotated.

Configs flow through settings fingerprints (SHA-256 over their
serialized form) into cache keys and shard manifests.  A mutable
config invites in-place edits *after* fingerprinting — the cache then
files results under a stale key; an unannotated class attribute is
silently shared class state instead of a dataclass field, so it never
reaches ``asdict``/the fingerprint at all.  Both failure modes are
invisible at the call site, so the shape is enforced here.

Scope: every ``@dataclass`` class in modules under ``repro.config``.
Flagged:

* a ``@dataclass`` decoration without ``frozen=True``;
* a plain (unannotated) assignment in the class body — it is a class
  attribute, not a field; annotate it (or name it with a leading
  underscore if shared class state is genuinely intended).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis import astutil
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule

__all__ = ["FrozenConfigs"]

IN_SCOPE_PREFIX = "repro.config"


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in node.decorator_list:
        name = astutil.dotted_name(
            decorator.func if isinstance(decorator, ast.Call) else decorator)
        if name in ("dataclass", "dataclasses.dataclass"):
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass defaults to frozen=False
    for kw in decorator.keywords:
        if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
            return kw.value.value is True
    return False


class FrozenConfigs(Rule):
    id = "CFG001"
    title = "config dataclass not frozen or not fully annotated"
    severity = "error"
    hint = ("declare config classes @dataclass(frozen=True) and give "
            "every field a type annotation; do validation in "
            "__post_init__ with object.__setattr__ for derived fields")

    def check_module(self, module, project) -> Iterable[Finding]:
        if not (module.name == IN_SCOPE_PREFIX
                or module.name.startswith(IN_SCOPE_PREFIX + ".")):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            if not _is_frozen(decorator):
                findings.append(self.finding(
                    module, node.lineno, node.col_offset, node.name,
                    f"config dataclass {node.name} is not frozen; "
                    f"mutation after fingerprinting corrupts cache keys"))
            for stmt in node.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name) \
                            and not target.id.startswith("_"):
                        findings.append(self.finding(
                            module, stmt.lineno, stmt.col_offset,
                            f"{node.name}.{target.id}",
                            f"unannotated assignment {target.id} in "
                            f"dataclass {node.name} is a class "
                            f"attribute, not a field"))
        return findings
