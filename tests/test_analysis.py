"""Tests for the ``deact check`` static analyzer (:mod:`repro.analysis`).

Layout mirrors the checker's contract surface:

* per-rule positive/negative fixtures under ``tests/analysis_fixtures/``
  (``bad/`` must fire, ``good/`` must stay silent — both directions
  are regressions);
* the engine's suppression machinery (inline allows, baseline
  round-trip);
* the CLI's exit-code contract (0 clean / 1 findings / 2 internal
  error) and the ``--json`` report schema;
* the repo's own tree staying clean — the gate CI enforces.
"""

import ast
import json
import re
import sys
import tomllib
from importlib.util import find_spec
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    all_rules,
    get_rule,
    load_baseline,
    run_check,
    scan_project,
    write_baseline,
)
from repro.cli import main
from repro.core.hotpath import hot_path, is_hot_path
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def check_fixture(rule_ids, fixture, variant):
    root = FIXTURES / fixture / variant / "repro"
    return run_check(root=root, rules=[get_rule(r) for r in rule_ids])


def fired(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


# ----------------------------------------------------------------------
# Registry and decorator
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_documented_rules_registered(self):
        ids = {rule.id for rule in all_rules()}
        assert {"DET001", "HOT001", "PAR001", "PKL001", "CFG001",
                "DEF001", "EXC001", "ROB001"} <= ids

    def test_rules_carry_metadata(self):
        for rule in all_rules():
            assert rule.title, rule.id
            assert rule.hint, rule.id
            assert rule.severity in ("error", "warning")

    def test_get_rule_unknown_id(self):
        with pytest.raises(KeyError, match="NOPE999"):
            get_rule("NOPE999")


class TestHotPathDecorator:
    def test_marks_without_wrapping(self):
        def probe(x):
            return x

        marked = hot_path(probe)
        assert marked is probe
        assert is_hot_path(probe)

    def test_unmarked(self):
        assert not is_hot_path(len)
        assert not is_hot_path(None)


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------
class TestDet001:
    def test_bad_tree_fires_each_source(self):
        report = check_fixture(["DET001"], "det001", "bad")
        messages = " | ".join(f.message for f in fired(report, "DET001"))
        assert "time.time()" in messages
        assert "os.urandom()" in messages
        assert "random.random()" in messages
        assert "random.Random() without a seed" in messages
        assert "sort_keys=True" in messages
        assert "without sorted()" in messages
        assert len(fired(report, "DET001")) == 6

    def test_good_tree_is_silent(self):
        report = check_fixture(["DET001"], "det001", "good")
        assert report.findings == ()
        # ...and the fixture's explicit allow was honored, not missed.
        assert len(report.suppressed_inline) == 1

    def test_scope_excludes_non_core_modules(self):
        report = check_fixture(["DET001"], "det001", "good")
        assert all(f.path != "repro/outside.py"
                   for f in report.findings + report.suppressed_inline)


class TestHot001:
    def test_bad_tree_fires_each_construct(self):
        report = check_fixture(["HOT001"], "hot001", "bad")
        messages = " | ".join(f.message for f in fired(report, "HOT001"))
        for construct in ("list comprehension", "dict display",
                         "f-string", "lambda", "list() call",
                         "nested FunctionDef", "set display"):
            assert construct in messages, construct

    def test_decorator_marks_non_fast_names(self):
        report = check_fixture(["HOT001"], "hot001", "bad")
        assert any(f.symbol == "decorated_step"
                   for f in fired(report, "HOT001"))

    def test_good_tree_is_silent(self):
        # Pins the false-positive boundary: raise statements may
        # format, cold functions may allocate.
        report = check_fixture(["HOT001"], "hot001", "good")
        assert report.findings == ()


class TestPar001:
    def test_bad_tree_fires_each_mirror(self):
        report = check_fixture(["PAR001"], "par001", "bad")
        messages = " | ".join(f.message for f in fired(report, "PAR001"))
        assert "frobnicate_fast" in messages      # orphan probe
        assert "Node.metrics()" in messages       # constructor drift
        assert "_result_to_dict" in messages      # serializer drift
        assert len(fired(report, "PAR001")) == 3

    def test_paired_probe_not_flagged(self):
        report = check_fixture(["PAR001"], "par001", "bad")
        assert all("lookup_fast" not in f.message
                   for f in fired(report, "PAR001"))

    def test_good_tree_is_silent(self):
        report = check_fixture(["PAR001"], "par001", "good")
        assert report.findings == ()

    def test_degrades_on_partial_trees(self):
        # A tree without the anchor modules (e.g. another rule's
        # fixture) must not crash or fire.
        report = check_fixture(["PAR001"], "det001", "bad")
        assert report.findings == ()


class TestPkl001:
    def test_bad_tree_fires_each_shape(self):
        report = check_fixture(["PKL001"], "pkl001", "bad")
        messages = " | ".join(f.message for f in fired(report, "PKL001"))
        assert "lambda" in messages
        assert "nested function 'worker'" in messages
        assert "bound method self._step" in messages
        assert len(fired(report, "PKL001")) == 3

    def test_good_tree_is_silent(self):
        # Module-level workers pass; the page tables' address-mapping
        # ``.map()`` API must never be mistaken for a pool submit.
        report = check_fixture(["PKL001"], "pkl001", "good")
        assert report.findings == ()


class TestCfg001:
    def test_bad_tree_fires(self):
        report = check_fixture(["CFG001"], "cfg001", "bad")
        messages = " | ".join(f.message for f in fired(report, "CFG001"))
        assert "ThawedConfig is not frozen" in messages
        assert "ExplicitlyThawed is not frozen" in messages
        assert "unannotated assignment page_bytes" in messages
        assert len(fired(report, "CFG001")) == 3

    def test_good_tree_is_silent(self):
        report = check_fixture(["CFG001"], "cfg001", "good")
        assert report.findings == ()


class TestHygieneRules:
    def test_bad_tree_fires(self):
        report = check_fixture(["DEF001", "EXC001"], "hygiene", "bad")
        assert len(fired(report, "DEF001")) == 2
        assert len(fired(report, "EXC001")) == 1

    def test_good_tree_is_silent(self):
        report = check_fixture(["DEF001", "EXC001"], "hygiene", "good")
        assert report.findings == ()


class TestRob001:
    def test_bad_tree_fires_each_shape(self):
        report = check_fixture(["ROB001"], "rob001", "bad")
        messages = " | ".join(f.message for f in fired(report, "ROB001"))
        assert "result_queue.get()" in messages
        assert "proc.join()" in messages
        assert "wait()" in messages
        assert ".imap_unordered()" in messages
        assert len(fired(report, "ROB001")) == 4

    def test_good_tree_is_silent(self):
        # Bounded waits pass in every spelling (keyword and positional
        # timeouts), a dict-style ``.get`` stays out of scope, and the
        # one intended unbounded wait is inline-allowed with rationale.
        report = check_fixture(["ROB001"], "rob001", "good")
        assert report.findings == ()

    def test_production_supervisor_is_in_scope_and_clean(self):
        # The real coordination modules must carry the discipline the
        # rule encodes (timeouts on every join/wait) without needing a
        # single suppression.
        from repro.analysis import run_check

        report = run_check(rules=[get_rule("ROB001")])
        assert fired(report, "ROB001") == []


# ----------------------------------------------------------------------
# Engine: scanning, suppression, baseline round-trip
# ----------------------------------------------------------------------
class TestEngine:
    def test_scan_derives_dotted_names(self):
        project = scan_project(FIXTURES / "det001" / "bad" / "repro")
        assert "repro.core.clock" in project.modules
        module = project.modules["repro.core.clock"]
        assert module.rel == "repro/core/clock.py"

    def test_scan_rejects_missing_root(self, tmp_path):
        with pytest.raises(AnalysisError, match="not a package"):
            scan_project(tmp_path / "nope")

    def test_scan_rejects_syntax_errors(self, tmp_path):
        root = tmp_path / "repro"
        root.mkdir()
        (root / "broken.py").write_text("def f(:\n")
        with pytest.raises(AnalysisError, match="cannot parse"):
            scan_project(root)

    def test_inline_allow_on_same_line(self, tmp_path):
        root = tmp_path / "repro"
        (root / "core").mkdir(parents=True)
        (root / "core" / "m.py").write_text(
            "import time\n"
            "def f():\n"
            "    return time.time()  # deact: allow(DET001)\n")
        report = run_check(root=root, rules=[get_rule("DET001")])
        assert report.findings == ()
        assert len(report.suppressed_inline) == 1

    def test_findings_sorted_and_deduped(self):
        report = check_fixture(["DET001"], "det001", "bad")
        keys = [f.sort_key() for f in report.findings]
        assert keys == sorted(keys)
        assert len(set(report.findings)) == len(report.findings)

    def test_baseline_round_trip(self, tmp_path):
        bad_root = FIXTURES / "det001" / "bad" / "repro"
        first = run_check(root=bad_root, rules=[get_rule("DET001")])
        assert first.findings

        baseline_path = tmp_path / "analysis-baseline.toml"
        write_baseline(baseline_path, first.findings)
        baseline = load_baseline(baseline_path)

        second = run_check(root=bad_root, rules=[get_rule("DET001")],
                           baseline=baseline)
        assert second.findings == ()
        assert len(second.suppressed_baseline) == len(first.findings)

    def test_baseline_missing_file_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "absent.toml")
        assert baseline.entries == ()

    def test_baseline_rejects_corrupt_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("schema = [unclosed\n")
        with pytest.raises(AnalysisError, match="cannot read baseline"):
            load_baseline(path)

    def test_baseline_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("schema = 99\n")
        with pytest.raises(AnalysisError, match="unsupported schema"):
            load_baseline(path)

    def test_baseline_symbol_scoping(self, tmp_path):
        finding = Finding(rule="DET001", severity="error",
                          path="repro/core/clock.py", line=1, col=1,
                          symbol="stamp", message="m")
        other = Finding(rule="DET001", severity="error",
                        path="repro/core/clock.py", line=9, col=1,
                        symbol="entropy", message="m")
        path = tmp_path / "b.toml"
        write_baseline(path, (finding,))
        baseline = load_baseline(path)
        assert baseline.matches(finding)
        assert not baseline.matches(other)


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
class TestCheckCommand:
    def test_exit_zero_on_clean_tree(self, capsys):
        root = FIXTURES / "det001" / "good" / "repro"
        code = main(["check", "--root", str(root), "--rule", "DET001"])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, capsys):
        root = FIXTURES / "det001" / "bad" / "repro"
        code = main(["check", "--root", str(root), "--rule", "DET001"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "repro/core/clock.py" in out

    def test_exit_two_on_internal_error(self, tmp_path, capsys):
        root = tmp_path / "repro"
        root.mkdir()
        (root / "broken.py").write_text("def f(:\n")
        code = main(["check", "--root", str(root)])
        assert code == 2
        assert "internal error" in capsys.readouterr().err

    def test_exit_two_on_corrupt_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "corrupt.toml"
        baseline.write_text("schema = [unclosed\n")
        root = FIXTURES / "det001" / "good" / "repro"
        code = main(["check", "--root", str(root),
                     "--baseline", str(baseline)])
        assert code == 2

    def test_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["check", "--rule", "NOPE999"])

    def test_json_report_schema(self, capsys):
        root = FIXTURES / "det001" / "bad" / "repro"
        code = main(["check", "--root", str(root), "--rule", "DET001",
                     "--json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["tool"] == "deact-check"
        assert report["rules"] == ["DET001"]
        assert report["counts"]["total"] == len(report["findings"])
        assert report["counts"]["by_rule"] == {"DET001":
                                               report["counts"]["total"]}
        assert set(report["suppressed"]) == {"inline", "baseline"}
        for finding in report["findings"]:
            assert set(finding) == {"rule", "severity", "path", "line",
                                    "col", "symbol", "message", "hint"}

    def test_fix_hints_render(self, capsys):
        root = FIXTURES / "det001" / "bad" / "repro"
        main(["check", "--root", str(root), "--rule", "DET001",
              "--fix-hints"])
        out = capsys.readouterr().out
        assert "fix hints:" in out
        assert "seeded random.Random" in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = FIXTURES / "det001" / "bad" / "repro"
        baseline = tmp_path / "analysis-baseline.toml"
        code = main(["check", "--root", str(root), "--rule", "DET001",
                     "--write-baseline", "--baseline", str(baseline)])
        assert code == 0
        assert baseline.is_file()
        capsys.readouterr()
        code = main(["check", "--root", str(root), "--rule", "DET001",
                     "--baseline", str(baseline)])
        assert code == 0
        assert "baselined" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The gate itself
# ----------------------------------------------------------------------
class TestRepoTreeIsClean:
    def test_repo_tree_has_no_findings(self):
        # The tree the repo ships must pass its own gate with the
        # shipped (empty) baseline — CI enforces exactly this.
        report = run_check()
        assert report.findings == (), report.render_table()

    def test_shipped_baseline_is_empty(self):
        repo_root = Path(__file__).resolve().parents[1]
        baseline = load_baseline(repo_root / "analysis-baseline.toml")
        assert baseline.entries == ()

    def test_hot_surface_is_marked(self):
        from repro.acm.store import AcmStore
        from repro.cache.hierarchy import CacheHierarchy
        from repro.core.node import Node
        from repro.mem.device import DramDevice, NvmDevice
        from repro.pagetable.walker import PageTableWalker
        from repro.tlb.mmu import Mmu

        for func in (Node.run_events, Node.run_decoded,
                     Node._charge_block, Mmu.translate_after_l1_miss,
                     CacheHierarchy.access_after_l1_miss,
                     NvmDevice.access, DramDevice.access, AcmStore.check,
                     PageTableWalker.walk):
            assert is_hot_path(func), func

    def test_seed_boxes_live_only_in_refpath(self):
        # The seed's per-outcome result boxes belong to the refpath
        # oracle alone, and the boxed production twins that built them
        # stay deleted: each layer keeps one production entry point.
        boxes = {"AccessResult", "HierarchyResult", "TlbLookup",
                 "TranslationOutcome", "TranslatorLookup", "WalkTiming",
                 "WalkResult"}
        deleted = {
            "Node": {"step", "access", "cached_access", "memory_access",
                     "in_fam_zone"},
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
        for module in scan_project().modules.values():
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
        project = scan_project()
        revived = [name for name in project.modules
                   if name in {"repro.experiments." + leaf
                               for leaf in ("bench", "trajectory")}]
        errors = project.modules["repro.errors"].tree
        revived += [f"repro.errors.{node.name}"
                    for node in ast.walk(errors)
                    if isinstance(node, ast.ClassDef)
                    and node.name.startswith("Bench")]
        system = project.modules["repro.core.system"].tree
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
        "repro.core.hotpath.is_hot_path":
            "test_hot_surface_is_marked checks the @hot_path marks",
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
        # (outside repro.analysis) must be referenced by name from
        # non-test code: src/, perfbench/, examples/, scripts/,
        # benchmarks/ or a CI workflow.  Matching bare names can only
        # hide a test-only name behind a namesake, never flag a name
        # that is really used.
        defined = {}
        used = set()
        src = REPO_ROOT / "src"
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= self._referenced_names(tree)
            parts = path.relative_to(src).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__"
                              else parts)
            if module.startswith("repro.analysis"):
                continue
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
        for folder in ("perfbench", "examples", "scripts", "benchmarks"):
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

    def test_imports_are_declared(self):
        # A fresh runner installs only what pyproject.toml declares
        # (CI installs the project with its test extra), so every
        # third-party import of the library, tests and benchmarks must
        # be declared there.
        project = tomllib.loads(
            (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        requirements = (project["project"]["dependencies"]
                        + project["project"]["optional-dependencies"]["test"])
        declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group()
                    .lower().replace("-", "_")
                    for requirement in requirements}
        allowed = declared | set(sys.stdlib_module_names) \
            | {"repro", "conftest"}
        undeclared = []
        for folder in ("src", "tests", "benchmarks"):
            for path in sorted((REPO_ROOT / folder).rglob("*.py")):
                if FIXTURES in path.parents:
                    continue  # parsed by the checker, never imported
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
                        if module.partition(".")[0] not in allowed]
        assert undeclared == []
