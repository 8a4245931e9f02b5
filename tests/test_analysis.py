"""Static invariant checks on the ``repro`` source tree.

DeACT's results here rest on contracts that the equivalence suites
only catch after a violation ships: the fast path stays bit-identical
to its refpath oracle, canonical cache writes stay byte-deterministic,
the ``*_fast`` probes stay allocation-free and everything crossing the
sweep pool pickles.  Each rule below is a plain function over the
parsed (never imported) source that returns its violations as
``path:line: message`` strings:

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

Each rule fires on its ``bad/`` fixture under
``tests/analysis_fixtures/``, stays silent on its ``good/`` fixture
(both directions are regressions) and stays silent on ``src/repro``.
Where a violation is intended, ``# deact: allow(RULE) <why>`` on the
offending line or the line above it silences that rule there.
"""

import ast
import functools
import re
import sys
import tomllib
from collections import namedtuple
from importlib.util import find_spec
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: One parsed module: package-relative posix path
#: (``repro/core/node.py``), its AST and its source lines.
Module = namedtuple("Module", "rel tree lines")

_ALLOW_RE = re.compile(r"#\s*deact:\s*allow\(([A-Z0-9_,\s]+)\)")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def parse_tree(root=SRC):
    """Every module under the package directory ``root``, parsed."""
    root = Path(root)
    assert root.is_dir(), f"not a package directory: {root}"
    modules = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        rel = "/".join((root.name,) + path.relative_to(root).parts)
        modules.append(Module(rel, ast.parse(source, filename=str(path)),
                              tuple(source.splitlines())))
    return tuple(modules)


def fixture(name, variant):
    return parse_tree(FIXTURES / name / variant / "repro")


def allowed(lines, lineno, rule):
    """Whether ``# deact: allow(rule)`` sits on 1-based ``lineno`` or
    the line above it."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines):
            match = _ALLOW_RE.search(lines[candidate - 1])
            if match and rule in {r.strip()
                                  for r in match.group(1).split(",")}:
                return True
    return False


def violations(rule, hits):
    """``path:line: message`` for each ``(module, line, message)`` hit
    no inline allow silences, duplicates dropped."""
    return list(dict.fromkeys(
        f"{module.rel}:{line}: {message}" for module, line, message in hits
        if not allowed(module.lines, line, rule)))


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain (a Call resolves through
    its ``func``), else ``None``."""
    if isinstance(node, ast.Call):
        node = node.func
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def functions(tree, scope=""):
    """``(dotted qualname, def)`` for every function under ``tree``,
    methods and nested functions included (``Node.run_events``)."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            inner = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, _FUNCTIONS):
                yield inner, node
        yield from functions(node, inner)


def has_bound(call, positional_slot):
    """Whether ``call`` passes a timeout: a ``timeout=`` keyword,
    ``**kwargs`` (the bound may travel inside), or an argument in the
    positional slot the API defines for it."""
    keywords = {kw.arg for kw in call.keywords}
    return ("timeout" in keywords or None in keywords
            or len(call.args) > positional_slot)


# ----------------------------------------------------------------------
# DET001: the result cache and everything under repro.core promise
# byte-identical output for identical inputs.  Wall clocks, entropy,
# the shared unseeded RNG, unsorted json and set iteration break it.
# time.monotonic is fine: deadlines are never serialized.
# ----------------------------------------------------------------------
DET_BANNED_CALLS = frozenset({
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
})


def det001(modules):
    def unsorted_set(node):
        return isinstance(node, ast.Set) or (
            isinstance(node, ast.Call)
            and dotted_name(node) in ("set", "frozenset"))

    hits = []
    for module in modules:
        if not (module.rel.startswith("repro/core/")
                or module.rel == "repro/experiments/cachefile.py"):
            continue
        for node in ast.walk(module.tree):
            at, message = node, None
            if isinstance(node, ast.Call):
                name = dotted_name(node)
                if name is None:
                    continue
                if name in DET_BANNED_CALLS:
                    message = f"call to {name}() is nondeterministic"
                elif name.startswith("secrets."):
                    message = f"call to {name}() draws from the entropy pool"
                elif name == "random.Random":
                    if not node.args and not node.keywords:
                        message = ("random.Random() without a seed is "
                                   "nondeterministic")
                elif name.startswith("random."):
                    message = (f"module-level {name}() uses the shared "
                               f"unseeded RNG")
                elif name in ("json.dump", "json.dumps"):
                    keywords = {kw.arg: kw.value for kw in node.keywords}
                    sort_keys = keywords.get("sort_keys")
                    if None not in keywords and not (
                            isinstance(sort_keys, ast.Constant)
                            and sort_keys.value is True):
                        message = (f"{name}() without sort_keys=True makes "
                                   f"output key-order dependent")
            elif isinstance(node, (ast.For, ast.comprehension)) \
                    and unsorted_set(node.iter):
                at = node.iter
                message = "iterating a set without sorted() has no stable order"
            if message:
                hits.append((module, at.lineno, message))
    return violations("DET001", hits)


# ----------------------------------------------------------------------
# HOT001: the per-event loops run hundreds of thousands of times per
# trace, so functions named *_fast or decorated @hot_path must not
# allocate.  Raise statements are exempt (error paths run at most once);
# tuple displays are allowed (the hot returns are tuple-shaped).
# ----------------------------------------------------------------------
HOT_BANNED_NODES = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
    ast.Lambda: "lambda",
    ast.JoinedStr: "f-string",
    ast.Dict: "dict display",
    ast.Set: "set display",
    ast.List: "list display",
}
#: Subtrees whose contents are exempt or already flagged as a unit.
_HOT_PRUNE = (ast.Raise, ast.Lambda, ast.ClassDef) + _FUNCTIONS


def marked_hot(func):
    """Whether ``func`` carries the ``@hot_path`` decorator."""
    return any(dotted_name(decorator) in ("hot_path", "hotpath.hot_path")
               for decorator in func.decorator_list)


def hot001(modules):
    hits = []
    for module in modules:
        for _, func in functions(module.tree):
            if not (func.name.endswith("_fast") or marked_hot(func)):
                continue
            stack = list(ast.iter_child_nodes(func))
            while stack:
                node = stack.pop()
                if not isinstance(node, _HOT_PRUNE):
                    stack.extend(ast.iter_child_nodes(node))
                label = HOT_BANNED_NODES.get(type(node))
                if label is None and isinstance(node, ast.Call) \
                        and dotted_name(node) in ("dict", "list", "set"):
                    label = f"{dotted_name(node)}() call"
                if label is None and isinstance(
                        node, _FUNCTIONS + (ast.ClassDef,)):
                    label = f"nested {type(node).__name__}"
                if label is not None:
                    hits.append((module, node.lineno,
                                 f"{label} allocates on every call of hot "
                                 f"function {func.name}()"))
    return violations("HOT001", hits)


# ----------------------------------------------------------------------
# PAR001: nothing at runtime checks the mirrors the tiers rest on.
# Every *_fast function needs a repro.core.refpath counterpart (sharing
# a name token of >= 4 chars, so walk_system_table_fast pairs with
# _ref_stu_walk via "walk"), and the NodeMetrics fields, the
# NodeMetrics(...) keywords in Node.metrics and the per-node keys of
# runner._result_to_dict must be one set (NodeMetrics(**n) stays total).
# Each sub-check runs only when its anchor modules are in the tree.
# ----------------------------------------------------------------------
#: Shorter tokens ("l1", "to", "do") match everything and prove nothing.
MIN_TOKEN = 4


def _tokens(name):
    stem = name[:-len("_fast")] if name.endswith("_fast") else name
    return {t for t in stem.lstrip("_").split("_") if len(t) >= MIN_TOKEN}


def _metrics_surfaces(by_rel):
    """``(module, label, keys, line)`` of each NodeMetrics mirror in
    the tree."""
    node = by_rel.get("repro/core/node.py")
    if node is not None:
        for call in ast.walk(node.tree):
            if isinstance(call, ast.Call) and not call.args \
                    and call.keywords \
                    and all(kw.arg for kw in call.keywords) \
                    and (dotted_name(call) or "").split(".")[-1] \
                    == "NodeMetrics":
                yield (node, "NodeMetrics(...) keywords in Node.metrics()",
                       tuple(kw.arg for kw in call.keywords), call.lineno)
                break
    runner = by_rel.get("repro/experiments/runner.py")
    if runner is not None:
        displays = (display for _, func in functions(runner.tree)
                    if func.name == "_result_to_dict"
                    for display in ast.walk(func)
                    if isinstance(display, ast.Dict))
        for display in displays:
            keys = tuple(k.value for k in display.keys
                         if isinstance(k, ast.Constant)
                         and isinstance(k.value, str))
            if "node_id" in keys:
                yield (runner, "_result_to_dict() per-node keys", keys,
                       display.lineno)
                break


def par001(modules):
    by_rel = {module.rel: module for module in modules}
    hits = []
    refpath = by_rel.get("repro/core/refpath.py")
    if refpath is not None:
        ref_tokens = set().union(*(_tokens(func.name)
                                   for _, func in functions(refpath.tree)))
        for module in modules:
            if module is refpath:
                continue
            for _, func in functions(module.tree):
                if func.name.endswith("_fast") \
                        and not _tokens(func.name) & ref_tokens:
                    hits.append((
                        module, func.lineno,
                        f"fast-path probe {func.name}() has no counterpart "
                        f"in repro.core.refpath (no shared name token); "
                        f"the reference tier cannot cross-check it"))
    results = by_rel.get("repro/core/results.py")
    declared = None if results is None else next(
        (node for node in ast.walk(results.tree)
         if isinstance(node, ast.ClassDef) and node.name == "NodeMetrics"),
        None)
    if declared is not None:
        want = {stmt.target.id for stmt in declared.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)}
        for module, label, keys, line in _metrics_surfaces(by_rel):
            missing, extra = sorted(want - set(keys)), sorted(set(keys) - want)
            detail = ([f"missing {missing}"] if missing else []) \
                + ([f"extra {extra}"] if extra else [])
            if detail:
                hits.append((module, line,
                             f"{label} drifted from NodeMetrics fields: "
                             f"{'; '.join(detail)}"))
    return violations("PAR001", hits)


# ----------------------------------------------------------------------
# PKL001: a callable crossing the sweep pool is pickled by reference, so
# a lambda, a nested function or a bound method fails, but only at run
# time and only with --jobs > 1.  Bare .map() is not a submit method:
# the page tables' table.map(node_page, fam_page) maps addresses.
# ----------------------------------------------------------------------
SUBMIT_METHODS = frozenset({"imap", "imap_unordered", "map_async", "starmap",
                            "starmap_async", "apply_async", "submit"})


def pkl001(modules):
    hits = []
    for module in modules:
        for _, func in functions(module.tree):
            nested = {node.name for node in ast.walk(func)
                      if node is not func and isinstance(node, _FUNCTIONS)}
            nested |= {target.id for node in ast.walk(func)
                       if isinstance(node, ast.Assign)
                       and isinstance(node.value, ast.Lambda)
                       for target in node.targets
                       if isinstance(target, ast.Name)}
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and node.args
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in SUBMIT_METHODS):
                    continue
                target = node.args[0]
                problem = None
                if isinstance(target, ast.Lambda):
                    problem = "lambda"
                elif isinstance(target, ast.Name) and target.id in nested:
                    problem = f"nested function {target.id!r}"
                elif isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in ("self", "cls"):
                    problem = f"bound method {target.value.id}.{target.attr}"
                if problem:
                    hits.append((module, target.lineno,
                                 f"{problem} passed to .{node.func.attr}() "
                                 f"cannot be pickled by reference"))
    return violations("PKL001", hits)


# ----------------------------------------------------------------------
# CFG001: configs feed the settings fingerprints behind cache keys.  A
# mutable config can change after fingerprinting, and an unannotated
# class attribute never reaches the fingerprint.  Underscore names may
# hold shared class state.
# ----------------------------------------------------------------------
def cfg001(modules):
    hits = []
    for module in modules:
        if not module.rel.startswith("repro/config/"):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = next(
                (d for d in node.decorator_list
                 if dotted_name(d) in ("dataclass", "dataclasses.dataclass")),
                None)
            if decorator is None:
                continue
            frozen = isinstance(decorator, ast.Call) and any(
                kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True for kw in decorator.keywords)
            if not frozen:
                hits.append((module, node.lineno,
                             f"config dataclass {node.name} is not frozen; "
                             f"mutation after fingerprinting corrupts cache "
                             f"keys"))
            hits += [(module, stmt.lineno,
                      f"unannotated assignment {target.id} in dataclass "
                      f"{node.name} is a class attribute, not a field")
                     for stmt in node.body if isinstance(stmt, ast.Assign)
                     for target in stmt.targets
                     if isinstance(target, ast.Name)
                     and not target.id.startswith("_")]
    return violations("CFG001", hits)


# ----------------------------------------------------------------------
# DEF001: a mutable default is shared by every call, so one sweep job
# mutating it leaks into every later job in that worker.
# EXC001: a bare except swallows KeyboardInterrupt / SystemExit and
# turns Ctrl-C during a sweep into a hung pool.
# ----------------------------------------------------------------------
def def001(modules):
    hits = []
    for module in modules:
        for qualname, func in functions(module.tree):
            for default in func.args.defaults + [
                    d for d in func.args.kw_defaults if d is not None]:
                if isinstance(default, (ast.Dict, ast.List, ast.Set)) or (
                        isinstance(default, ast.Call)
                        and dotted_name(default) in ("dict", "list", "set")):
                    hits.append((module, default.lineno,
                                 f"mutable default argument in {qualname}() "
                                 f"is shared across every call"))
    return violations("DEF001", hits)


def exc001(modules):
    return violations("EXC001", [
        (module, node.lineno,
         "bare except: also catches KeyboardInterrupt and SystemExit")
        for module in modules for node in ast.walk(module.tree)
        if isinstance(node, ast.ExceptHandler) and node.type is None])


# ----------------------------------------------------------------------
# ROB001: the parent never blocks without bound on a child that may be
# dead.  In the coordination modules, queue .get(), process .join() and
# wait() need a timeout (keyword, **kwargs or the API's positional
# slot), and pool .imap*() has no timeout at all.  .poll() defaults to
# non-blocking and conn.recv() is only reached behind a bounded poll or
# wait, so both stay out of scope.
# ----------------------------------------------------------------------
ROB_MODULES = frozenset({"repro/experiments/supervisor.py",
                         "repro/experiments/sweep.py",
                         "repro/experiments/cachefile.py"})


def rob001(modules):
    hits = []
    for module in modules:
        if module.rel not in ROB_MODULES:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            message = None
            if isinstance(node.func, ast.Attribute):
                method = node.func.attr
                receiver = dotted_name(node.func.value)
                kind = (receiver or "").rsplit(".", 1)[-1].lower()
                if method in ("imap", "imap_unordered"):
                    message = (f".{method}() blocks forever on a dead worker "
                               f"and offers no timeout; use the supervised "
                               f"pool (run_supervised)")
                # Queue.get(block=True, timeout=None): slot 1.
                elif method == "get" and ("queue" in kind
                                          or kind.endswith("_q")) \
                        and not has_bound(node, 1):
                    message = (f"{receiver}.get() without a timeout hangs "
                               f"if the producer died")
                # join(timeout=None): slot 0.
                elif method == "join" and any(
                        f in kind for f in ("proc", "worker", "pool",
                                            "thread")) \
                        and not has_bound(node, 0):
                    message = (f"{receiver}.join() without a timeout hangs "
                               f"on a wedged child")
            name = dotted_name(node) or ""
            # wait(object_list, timeout=None): slot 1.
            if (name == "wait" or name.endswith((".wait", "_wait"))) \
                    and not has_bound(node, 1):
                message = (f"{name}() without a timeout blocks forever if "
                           f"no child ever speaks")
            if message:
                hits.append((module, node.lineno, message))
    return violations("ROB001", hits)


RULES = (det001, hot001, par001, pkl001, cfg001, def001, exc001, rob001)


# ----------------------------------------------------------------------
# The parse and allow helpers every rule runs on
# ----------------------------------------------------------------------
class TestEngine:
    def test_scan_derives_dotted_names(self):
        rels = {m.rel for m in fixture("det001", "bad")}
        assert rels == {"repro/core/clock.py"}

    def test_scan_rejects_missing_root(self, tmp_path):
        with pytest.raises(AssertionError, match="not a package"):
            parse_tree(tmp_path / "nope")

    def test_scan_rejects_syntax_errors(self, tmp_path):
        root = tmp_path / "repro"
        root.mkdir()
        (root / "broken.py").write_text("def f(:\n")
        with pytest.raises(SyntaxError):
            parse_tree(root)

    def test_inline_allow_on_same_line(self):
        lines = ("import time",
                 "def f():",
                 "    return time.time()  # deact: allow(DET001, ROB001)",
                 "# deact: allow(HOT001)",
                 "x = [1]")
        assert allowed(lines, 3, "DET001") and allowed(lines, 3, "ROB001")
        assert not allowed(lines, 3, "HOT001")
        assert allowed(lines, 5, "HOT001")      # marker on the line above
        assert not allowed(lines, 2, "DET001")  # ...but not the line below
        assert not allowed(lines, 1, "DET001")

    def test_identical_hits_on_one_line_report_once(self, tmp_path):
        root = tmp_path / "repro"
        (root / "core").mkdir(parents=True)
        (root / "core" / "clock.py").write_text(
            "import time\n"
            "def f():\n"
            "    return time.time() - time.time()\n")
        assert det001(parse_tree(root)) == [
            "repro/core/clock.py:3: call to time.time() is nondeterministic"]


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------
class TestDet001:
    def test_bad_tree_fires_each_source(self):
        fired = det001(fixture("det001", "bad"))
        messages = " | ".join(fired)
        assert "time.time()" in messages
        assert "os.urandom()" in messages
        assert "random.random()" in messages
        assert "random.Random() without a seed" in messages
        assert "sort_keys=True" in messages
        assert "without sorted()" in messages
        assert len(fired) == 6

    def test_good_tree_is_silent(self):
        good = fixture("det001", "good")
        assert det001(good) == []
        # ...and the fixture's explicit allow was honored, not missed.
        unmarked = [module._replace(lines=()) for module in good]
        assert len(det001(unmarked)) == 1

    def test_scope_excludes_non_core_modules(self):
        good = fixture("det001", "good")
        assert "repro/outside.py" in {module.rel for module in good}
        unmarked = [module._replace(lines=()) for module in good]
        assert not any(v.startswith("repro/outside.py")
                       for v in det001(unmarked))


class TestHot001:
    def test_bad_tree_fires_each_construct(self):
        messages = " | ".join(hot001(fixture("hot001", "bad")))
        for construct in ("list comprehension", "dict display",
                          "f-string", "lambda", "list() call",
                          "nested FunctionDef", "set display"):
            assert construct in messages, construct

    def test_decorator_marks_non_fast_names(self):
        assert any("hot function decorated_step()" in v
                   for v in hot001(fixture("hot001", "bad")))

    def test_good_tree_is_silent(self):
        # Pins the false-positive boundary: raise statements may
        # format, cold functions may allocate.
        assert hot001(fixture("hot001", "good")) == []


class TestPar001:
    def test_bad_tree_fires_each_mirror(self):
        fired = par001(fixture("par001", "bad"))
        messages = " | ".join(fired)
        assert "frobnicate_fast" in messages      # orphan probe
        assert "Node.metrics()" in messages       # constructor drift
        assert "_result_to_dict" in messages      # serializer drift
        assert len(fired) == 3

    def test_paired_probe_not_flagged(self):
        assert all("lookup_fast" not in v
                   for v in par001(fixture("par001", "bad")))

    def test_good_tree_is_silent(self):
        assert par001(fixture("par001", "good")) == []

    def test_degrades_on_partial_trees(self):
        # A tree without the anchor modules (e.g. another rule's
        # fixture) must not crash or fire.
        assert par001(fixture("det001", "bad")) == []


class TestPkl001:
    def test_bad_tree_fires_each_shape(self):
        fired = pkl001(fixture("pkl001", "bad"))
        messages = " | ".join(fired)
        assert "lambda" in messages
        assert "nested function 'worker'" in messages
        assert "bound method self._step" in messages
        assert len(fired) == 3

    def test_good_tree_is_silent(self):
        # Module-level workers pass; the page tables' address-mapping
        # ``.map()`` API must never be mistaken for a pool submit.
        assert pkl001(fixture("pkl001", "good")) == []


class TestCfg001:
    def test_bad_tree_fires(self):
        fired = cfg001(fixture("cfg001", "bad"))
        messages = " | ".join(fired)
        assert "ThawedConfig is not frozen" in messages
        assert "ExplicitlyThawed is not frozen" in messages
        assert "unannotated assignment page_bytes" in messages
        assert len(fired) == 3

    def test_good_tree_is_silent(self):
        assert cfg001(fixture("cfg001", "good")) == []


class TestHygieneRules:
    def test_bad_tree_fires(self):
        bad = fixture("hygiene", "bad")
        assert len(def001(bad)) == 2
        assert len(exc001(bad)) == 1

    def test_good_tree_is_silent(self):
        good = fixture("hygiene", "good")
        assert def001(good) == [] and exc001(good) == []


class TestRob001:
    def test_bad_tree_fires_each_shape(self):
        fired = rob001(fixture("rob001", "bad"))
        messages = " | ".join(fired)
        assert "result_queue.get()" in messages
        assert "proc.join()" in messages
        assert "wait()" in messages
        assert ".imap_unordered()" in messages
        assert len(fired) == 4

    def test_good_tree_is_silent(self):
        # Bounded waits pass in every spelling (keyword and positional
        # timeouts), a dict-style ``.get`` stays out of scope, and the
        # one intended unbounded wait is inline-allowed with rationale.
        assert rob001(fixture("rob001", "good")) == []

    def test_production_supervisor_is_in_scope_and_clean(self):
        # The real coordination modules must carry the discipline the
        # rule encodes (timeouts on every join/wait) without needing a
        # single suppression.
        in_scope = [m for m in parse_tree() if m.rel in ROB_MODULES]
        assert {m.rel for m in in_scope} == ROB_MODULES
        unmarked = [module._replace(lines=()) for module in in_scope]
        assert rob001(unmarked) == []


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
class TestRepoTreeIsClean:
    def test_repo_tree_has_no_findings(self):
        fired = {rule.__name__: rule(parse_tree()) for rule in RULES}
        assert fired == {rule.__name__: [] for rule in RULES}

    def test_hot_surface_is_marked(self):
        marked = {f"{module.rel}:{qualname}"
                  for module in parse_tree()
                  for qualname, func in functions(module.tree)
                  if marked_hot(func)}
        assert {"repro/core/node.py:Node.run_events",
                "repro/core/node.py:Node.run_decoded",
                "repro/tlb/mmu.py:Mmu.translate_after_l1_miss",
                "repro/cache/hierarchy.py:CacheHierarchy.access_after_l1_miss",
                "repro/mem/device.py:NvmDevice.access",
                "repro/mem/device.py:DramDevice.access",
                "repro/acm/store.py:AcmStore.check",
                "repro/pagetable/walker.py:PageTableWalker.walk"} <= marked

    def test_seed_boxes_live_only_in_refpath(self):
        # The seed's per-outcome result boxes belong to the refpath
        # oracle alone, and the boxed production twins that built them
        # stay deleted: each layer keeps one production entry point.
        boxes = {"AccessResult", "HierarchyResult", "TlbLookup",
                 "TranslationOutcome", "TranslatorLookup", "WalkTiming",
                 "WalkResult"}
        deleted = {
            "Node": {"step", "access", "cached_access", "memory_access",
                     "in_fam_zone", "_charge_block", "_memory_access_fast"},
            "Architecture": {"fam_access", "_fam_address",
                             "_needed_permission"},
            "CacheHierarchy": {"access", "block_address"},
            "SetAssociativeCache": {"access", "fill"},
            "Mmu": {"translate"},
            "TwoLevelTlb": {"lookup"},
            "FamTranslator": {"lookup"},
            "Stu": {"walk_system_table", "_walk_core"},
            "FourLevelPageTable": {"walk_entries_cached", "walk"},
        }
        defined, built, revived = {}, set(), []
        for module in parse_tree():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    if node.name in boxes:
                        defined[node.name] = module.rel
                    revived += [
                        f"{module.rel}: {node.name}.{stmt.name}"
                        for stmt in node.body
                        if isinstance(stmt, ast.FunctionDef)
                        and stmt.name in deleted.get(node.name, ())]
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in boxes:
                        built.add(module.rel)
        assert defined == dict.fromkeys(boxes, "repro/core/refpath.py")
        assert built == {"repro/core/refpath.py"}
        assert revived == []

    def test_core_loop_bench_stays_deleted(self):
        # Host speed has one judge (perfbench/) and FamSystem.run one
        # tier selector (reference=True): the core-loop bench, its
        # trajectory, their errors and the execution-mode constants
        # stay deleted.
        by_rel = {module.rel: module for module in parse_tree()}
        revived = [rel for rel in by_rel
                   if rel in {f"repro/experiments/{leaf}.py"
                              for leaf in ("bench", "trajectory")}]
        errors = by_rel["repro/errors.py"].tree
        revived += [f"repro.errors.{node.name}"
                    for node in ast.walk(errors)
                    if isinstance(node, ast.ClassDef)
                    and node.name.startswith("Bench")]
        system = by_rel["repro/core/system.py"].tree
        revived += [f"repro.core.system.{target.id}"
                    for node in system.body
                    if isinstance(node, ast.Assign)
                    for target in node.targets
                    if isinstance(target, ast.Name)
                    and "MODE" in target.id]
        assert revived == []

    #: Production names only tests call, each kept because a test
    #: needs it to set up or observe production-path state that no
    #: public attribute exposes.
    KEEP = {
        "repro.acm.bitmap.SharedPageBitmap.revoke":
            "test_security revokes a grant to build its revocation case",
        "repro.broker.broker.MemoryBroker.release_page":
            "test_security releases a page to build its stale-translator "
            "case",
        "repro.broker.allocator.FrameAllocator.is_allocated":
            "allocator and broker tests observe which frames are live",
        "repro.cache.hierarchy.CacheHierarchy.contains":
            "hierarchy and node tests observe which level holds a block",
        "repro.config.presets.small_config":
            "the shrunken Table II config the unit tests run on",
        "repro.experiments.faults.deactivate":
            "fault tests clear the process-wide plan and write hook",
        "repro.experiments.faults.install_torn_write_hook":
            "the torn-write suite kills the cache writer at every byte",
        "repro.pagetable.x86.FourLevelPageTable.mapped_pages":
            "page-table tests observe the mapping count",
        "repro.sim.resource.TimedResource.busy_until":
            "resource tests observe a server's horizon",
        "repro.stu.organizations.IFamStuCache.coverage_pages":
            "STU tests pin each organization's reach",
        "repro.stu.organizations.DeactWAcmCache.coverage_pages":
            "STU tests pin each organization's reach",
        "repro.stu.organizations.DeactNAcmCache.coverage_pages":
            "STU tests pin each organization's reach",
    }

    @staticmethod
    def _referenced_names(tree):
        """Names a module uses: ``Name`` ids, attribute names, import
        aliases and string constants, leaving out ``__all__`` entries
        (a re-export list is not a use)."""
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                exported.update(id(sub) for sub in ast.walk(node.value))
        names = set()
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                names.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.add(node.value)
        return names

    def test_no_test_only_production_api(self):
        # Every function, class and non-dunder method of src/repro
        # must be referenced by name from non-test code: src/,
        # perfbench/, examples/ or a CI workflow.  Matching bare names
        # can only hide a test-only name behind a namesake, never flag
        # a name that is really used.
        defined = {}
        used = set()
        src = REPO_ROOT / "src"
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= self._referenced_names(tree)
            parts = path.relative_to(src).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__"
                              else parts)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[f"{module}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    for stmt in node.body:
                        if isinstance(stmt, ast.FunctionDef) and not (
                                stmt.name.startswith("__")
                                and stmt.name.endswith("__")):
                            defined[f"{module}.{node.name}.{stmt.name}"] \
                                = stmt.name
        for folder in ("perfbench", "examples"):
            for path in (REPO_ROOT / folder).rglob("*.py"):
                used |= self._referenced_names(
                    ast.parse(path.read_text(encoding="utf-8")))
        for path in (REPO_ROOT / ".github" / "workflows").glob("*.yml"):
            used |= set(re.findall(r"[A-Za-z_]\w*",
                                   path.read_text(encoding="utf-8")))
        unused = {qualname for qualname, name in defined.items()
                  if name not in used}
        assert sorted(unused - self.KEEP.keys()) == []
        # A kept name that gained a production caller, or went away,
        # leaves the list.
        assert sorted(self.KEEP.keys() - unused) == []
        for module in ("repro.sim.engine", "repro.sim.clock",
                       "repro.cache.replacement", "repro.workloads.traceio"):
            assert find_spec(module) is None, module

    #: Attributes src/repro stores that no non-test code loads, each
    #: kept for the reason given.
    WRITE_ONLY_KEEP = {
        "AccessViolationError.fam_addr":
            "the denied FAM address is part of the raised error's "
            "report, for whoever catches it",
    }

    @staticmethod
    def _stores_and_loads(tree):
        """One module's stored attributes and loaded names.

        Stores are ``obj.attr = ...`` / ``obj.attr += ...`` targets,
        keyed ``Class.attr`` for ``self.attr`` inside a class and by
        their source text otherwise.  Loads are attribute reads,
        bare-name reads of the module's own globals, and string
        constants (``getattr`` and friends) outside ``__slots__`` and
        ``__all__``."""
        hidden = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name)
                    and target.id in ("__all__", "__slots__")
                    for target in node.targets):
                hidden.update(id(sub) for sub in ast.walk(node.value))
        module_globals = {
            target.id for node in tree.body
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, ast.AnnAssign) else [])
            if isinstance(target, ast.Name)}
        stores, loads = {}, set()

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Attribute):
                    if isinstance(child.ctx, ast.Load):
                        loads.add(child.attr)
                    elif isinstance(child.ctx, ast.Store):
                        on_self = (owner is not None
                                   and isinstance(child.value, ast.Name)
                                   and child.value.id == "self")
                        key = (f"{owner}.{child.attr}" if on_self
                               else ast.unparse(child))
                        stores[key] = child.attr
                elif isinstance(child, ast.Name):
                    if isinstance(child.ctx, ast.Load) \
                            and child.id in module_globals:
                        loads.add(child.id)
                elif isinstance(child, ast.Constant) \
                        and isinstance(child.value, str) \
                        and id(child) not in hidden:
                    loads.add(child.value)
                visit(child, owner)

        visit(tree, None)
        return stores, loads

    def test_no_write_only_state(self):
        # Every attribute src/repro stores must be loaded by non-test
        # code: src/, perfbench/ or examples/.  State that only tests
        # read costs the simulator a store per event and tells no
        # result anything.  Matching bare names can only hide a
        # write-only attribute behind a namesake, never flag one that
        # is really read.
        stores, loads = {}, set()
        src = REPO_ROOT / "src"
        for path in sorted(src.rglob("*.py")):
            module_stores, module_loads = self._stores_and_loads(
                ast.parse(path.read_text(encoding="utf-8")))
            loads |= module_loads
            stores.update(module_stores)
        for folder in ("perfbench", "examples"):
            for path in (REPO_ROOT / folder).rglob("*.py"):
                loads |= self._stores_and_loads(
                    ast.parse(path.read_text(encoding="utf-8")))[1]
        write_only = {key for key, attr in stores.items()
                      if attr not in loads}
        assert sorted(write_only - self.WRITE_ONLY_KEEP.keys()) == []
        # A kept attribute that gained a reader, or went away, leaves
        # the list.
        assert sorted(self.WRITE_ONLY_KEEP.keys() - write_only) == []

    def test_imports_are_declared(self):
        # A fresh runner installs only what pyproject.toml declares
        # (CI installs the project with its test extra), so every
        # third-party import of the library and tests must be declared
        # there.
        project = tomllib.loads(
            (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        requirements = (project["project"]["dependencies"]
                        + project["project"]["optional-dependencies"]["test"])
        declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group()
                    .lower().replace("-", "_")
                    for requirement in requirements}
        allowed_roots = declared | set(sys.stdlib_module_names) | {"repro"}
        undeclared = []
        for folder in ("src", "tests"):
            for path in sorted((REPO_ROOT / folder).rglob("*.py")):
                if FIXTURES in path.parents:
                    continue  # parsed by the rules above, never imported
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) \
                            and node.level == 0:
                        modules = [node.module]
                    else:
                        continue
                    undeclared += [
                        f"{path.relative_to(REPO_ROOT)}: {module}"
                        for module in modules
                        if module.partition(".")[0] not in allowed_roots]
        assert undeclared == []
