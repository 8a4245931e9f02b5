"""Shared :mod:`ast` helpers for the rule implementations.

Rules never import each other; anything two rules both need (dotted
call-name resolution, qualname maps, subtree walks with exclusions)
lives here so their notion of "what is a call to ``time.time``" or
"which function encloses this node" cannot drift apart.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "FUNCTION_NODES",
    "call_positional_count",
    "dotted_name",
    "function_defs",
    "has_double_star",
    "keyword_map",
    "qualname_map",
    "walk_excluding",
]

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = FUNCTION_NODES + (ast.ClassDef,)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Call nodes resolve through their ``func`` so both
    ``dotted_name(call)`` and ``dotted_name(call.func)`` work.
    """
    if isinstance(node, ast.Call):
        node = node.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def qualname_map(tree: ast.Module) -> Dict[int, str]:
    """Map ``id(node)`` of every node to its enclosing dotted qualname.

    Module-level nodes map to ``''``; a statement inside ``class Node:
    def run_events(...)`` maps to ``'Node.run_events'``.  Function
    and class *definition nodes themselves* map to their own qualname
    (a finding on ``def foo`` should read ``symbol=foo``).
    """
    out: Dict[int, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, _SCOPE_NODES):
            scope = f"{scope}.{node.name}" if scope else node.name
        out[id(node)] = scope
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for child in ast.iter_child_nodes(tree):
        visit(child, "")
    out[id(tree)] = ""
    return out


def function_defs(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(dotted_qualname, def_node)`` for every function."""
    names = qualname_map(tree)
    for node in ast.walk(tree):
        if isinstance(node, FUNCTION_NODES):
            yield names[id(node)], node


def walk_excluding(node: ast.AST, excluded: Tuple[type, ...],
                   include_root: bool = False) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree, pruning subtrees rooted at ``excluded``
    node types.

    The excluded node itself is *yielded* (so a rule can flag a nested
    ``def`` without also flagging every construct inside it) but its
    children are not visited.
    """
    if include_root:
        yield node
        if isinstance(node, excluded):
            return
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, excluded):
            continue
        stack.extend(ast.iter_child_nodes(current))


def keyword_map(call: ast.Call) -> Dict[Optional[str], ast.expr]:
    """Keyword name -> value expression; ``None`` key for ``**kwargs``."""
    return {kw.arg: kw.value for kw in call.keywords}


def has_double_star(call: ast.Call) -> bool:
    return any(kw.arg is None for kw in call.keywords)


def call_positional_count(call: ast.Call) -> int:
    return len(call.args)


def local_string_assignments(func: ast.AST) -> Dict[str, str]:
    """``name = "literal"`` assignments directly in a function body."""
    out: Dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value.value
    return out


def nested_function_names(func: ast.AST) -> Set[str]:
    """Names of functions/lambda-bindings defined *inside* ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if node is func:
            continue
        if isinstance(node, FUNCTION_NODES):
            names.add(node.name)
        elif isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names
