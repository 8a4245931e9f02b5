"""Tests for the experiment harness (runner, figures, tables,
reporting)."""

import dataclasses
import os

import pytest

from repro.config.presets import default_config, with_stu_entries
from repro.errors import ConfigError, ReproError, SweepFailure, \
    SweepInterrupted
from repro.experiments.cachefile import load_cache
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import (
    FigureResult,
    Row,
    render_paper_values,
    render_table,
)
from repro.experiments.runner import ExperimentRunner, RunSettings, \
    SweepJob, _result_to_dict, job_key
from repro.experiments.supervisor import SupervisorConfig
from repro.experiments.tables import TABLE3, table1, table2

FAST = RunSettings(n_events=2500, footprint_scale=0.02, seed=3)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(FAST)


def _leaves(obj, path=()):
    """``(path, value)`` for every non-dataclass field under ``obj``."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, path + (field.name,))
        else:
            yield path + (field.name,), value


def _with_leaf(obj, path, value):
    head, *rest = path
    if rest:
        value = _with_leaf(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


def _changed(config, path, value):
    """``config`` with the leaf at ``path`` set to ``value``.  The three
    cache levels must share one block size, so a block size changes in
    all of them."""
    if path[-1] == "block_bytes":
        return config.replace(**{
            level: dataclasses.replace(getattr(config, level),
                                       block_bytes=value)
            for level in ("l1", "l2", "l3")})
    return _with_leaf(config, path, value)


def _candidates(value):
    """Other values for a leaf, in order of preference; the first one
    its dataclass accepts is used (``fam_policy``, the one string with
    a fixed set of values, takes ``"contiguous"``)."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value * 2, value + 1]
    if isinstance(value, float):
        return [value + 0.5, value / 2]
    return [value + "-other", "contiguous"]


class TestJobKey:
    def test_every_config_field_changes_the_key(self):
        # A field left out of the key lets two configurations share
        # one cached result.
        config = default_config()
        settings = RunSettings(n_events=100, footprint_scale=0.01)
        base = job_key(SweepJob("mcf", "deact-n", config, settings))
        missed, unchanged = [], []
        leaves = list(_leaves(config))
        for path, value in leaves:
            for candidate in _candidates(value):
                if candidate == value:
                    continue
                try:
                    changed = _changed(config, path, candidate)
                except ConfigError:
                    continue
                if job_key(SweepJob("mcf", "deact-n", changed,
                                    settings)) == base:
                    missed.append(".".join(path))
                break
            else:
                unchanged.append(".".join(path))
        assert len(leaves) > 40
        assert missed == []
        assert unchanged == []


class TestRunner:
    def test_run_returns_result(self, runner):
        result = runner.run("mcf", "e-fam")
        assert result.benchmark == "mcf"
        assert result.architecture == "e-fam"

    def test_memoization(self, runner):
        first = runner.run("mcf", "e-fam")
        second = runner.run("mcf", "e-fam")
        assert first is second

    def test_config_variants_not_conflated(self, runner):
        base = runner.run("mcf", "i-fam")
        small_stu = runner.run("mcf", "i-fam",
                               with_stu_entries(default_config(), 256))
        assert base is not small_stu
        config = default_config()
        small_l3 = runner.run("mcf", "i-fam", config.replace(
            l3=dataclasses.replace(config.l3, size_bytes=256 * 1024)))
        assert base is not small_l3

    def test_run_matrix(self, runner):
        matrix = runner.run_matrix(["mcf"], ["e-fam", "i-fam"])
        assert set(matrix) == {("mcf", "e-fam"), ("mcf", "i-fam")}

    def test_disk_cache_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = ExperimentRunner(FAST, cache_path=path)
        result = first.run("mcf", "e-fam")
        assert os.path.exists(path)
        second = ExperimentRunner(FAST, cache_path=path)
        recalled = second.run("mcf", "e-fam")
        assert recalled.ipc == pytest.approx(result.ipc)
        assert recalled.fam_counters == result.fam_counters

    def test_corrupt_disk_cache_treated_as_empty(self, tmp_path, caplog):
        # Regression: a truncated/garbage cache file used to crash
        # __init__ inside json.load.
        path = tmp_path / "cache.json"
        path.write_text("{\"(\\'mcf\\', ")  # interrupted mid-write
        with caplog.at_level("WARNING"):
            harness = ExperimentRunner(FAST, cache_path=str(path))
        assert "unreadable result cache" in caplog.text
        result = harness.run("mcf", "e-fam")
        assert result.benchmark == "mcf"
        # The rewritten cache is valid again and recalls cleanly.
        recalled = ExperimentRunner(FAST, cache_path=str(path))
        assert recalled.run("mcf", "e-fam").fam_counters == \
            result.fam_counters

    def test_rejects_zero_jobs(self):
        with pytest.raises(ReproError):
            ExperimentRunner(FAST, jobs=0)

    def test_run_matrix_parallel_matches_serial(self):
        serial = ExperimentRunner(FAST).run_matrix(
            ["mcf"], ["e-fam", "i-fam"])
        parallel = ExperimentRunner(FAST, jobs=2).run_matrix(
            ["mcf"], ["e-fam", "i-fam"])
        for key, result in serial.items():
            assert _result_to_dict(parallel[key]) == \
                _result_to_dict(result)

    def test_prewarm_executes_once_then_memoizes(self):
        harness = ExperimentRunner(FAST)
        triples = [("mcf", "e-fam", default_config())]
        assert harness.prewarm(triples) == 1
        assert harness.prewarm(triples) == 0  # memo hit, nothing to do
        result = harness.run("mcf", "e-fam")
        assert result.benchmark == "mcf"

    def test_prewarm_populates_disk_cache(self, tmp_path):
        path = str(tmp_path / "cache.json")
        harness = ExperimentRunner(FAST, cache_path=path)
        harness.prewarm([("mcf", "e-fam", default_config())])
        fresh = ExperimentRunner(FAST, cache_path=path)
        assert fresh.prewarm([("mcf", "e-fam", default_config())]) == 0


class TestSalvage:
    """An aborted :meth:`ExperimentRunner.prewarm` leaves every run it
    finished in the cache: a long figure regeneration that dies near
    the end keeps its work."""

    CELLS = [(bench, arch, default_config())
             for bench in ("mcf", "canl") for arch in ("e-fam", "i-fam")]

    def _keys(self, indices):
        return {job_key(SweepJob(*self.CELLS[i], FAST)) for i in indices}

    def test_fail_fast_abort_keeps_finished_cells(self, faults, tmp_path):
        path = str(tmp_path / "cache.json")
        # Workers take the mcf cells first, so at least one finishes
        # before the canl cells fail for good.
        faults.add("raise", match="canl", attempts=99)
        runner = ExperimentRunner(FAST, cache_path=path, jobs=2)
        with pytest.raises(SweepFailure) as info:
            runner.prewarm(self.CELLS)
        assert info.value.payloads
        assert set(load_cache(path)) == self._keys(info.value.payloads)

    def test_interrupt_keeps_finished_cells(self, tmp_path):
        path = str(tmp_path / "cache.json")

        def interrupt_after_two(done, total):
            if done == 2:
                raise KeyboardInterrupt

        runner = ExperimentRunner(FAST, cache_path=path, jobs=2,
                                  progress=interrupt_after_two)
        with pytest.raises(SweepInterrupted) as info:
            runner.prewarm(self.CELLS)
        assert len(info.value.payloads) == 2
        assert set(load_cache(path)) == self._keys(info.value.payloads)

    def test_run_raises_for_a_quarantined_job(self, faults):
        faults.add("raise", match="mcf", attempts=99)
        runner = ExperimentRunner(FAST,
                                  supervisor=SupervisorConfig(retries=0))
        with pytest.raises(SweepFailure, match="mcf/e-fam"):
            runner.run("mcf", "e-fam")
        assert runner.failures is not None


class TestFigures:
    def test_figure3_rows_and_paper_refs(self, runner):
        spec = dataclasses.replace(ALL_FIGURES["3"], benchmarks=("mcf", "sssp"))
        result = spec.build(runner)
        assert result.figure_id == "fig3"
        assert [row.label for row in result.rows] == ["mcf", "sssp"]
        assert result.value("mcf", "I-FAM") > 1.0  # I-FAM always slower
        sssp_row = result.rows[1]
        assert sssp_row.paper["I-FAM"] == 20.6

    def test_figure12_normalization(self, runner):
        spec = dataclasses.replace(ALL_FIGURES["12"], benchmarks=("mcf",))
        result = spec.build(runner)
        assert result.value("mcf", "E-FAM") == pytest.approx(1.0)
        assert result.value("mcf", "I-FAM") < 1.0

    def test_figure16_uses_node_counts(self, runner):
        spec = ALL_FIGURES["16"]
        result = dataclasses.replace(spec, benchmarks=("pf",),
                                     series=spec.series[:2]).build(runner)
        assert result.series == ["1", "2"]
        assert result.rows[0].label == "pf"

    def test_registry_complete(self):
        for fig in ("3", "4", "9", "10", "11", "12", "13", "13a", "14",
                    "14s", "15", "16"):
            assert fig in ALL_FIGURES

    def test_group_row_rejects_a_zero_ipc_baseline(self, runner,
                                                    monkeypatch):
        # A speedup over a baseline with IPC 0 reads 0.0, a harness
        # bug the group geomean must reject rather than plot.
        spec = dataclasses.replace(ALL_FIGURES["13"], benchmarks=("pf",),
                                   series=ALL_FIGURES["13"].series[:1])
        baseline = runner.run("pf", "i-fam", spec.series[0][2])
        monkeypatch.setattr(baseline.nodes[0], "cycles", 0.0)
        with pytest.raises(ValueError, match="positive values, got 0.0"):
            spec.build(runner)


class _CountingRunner(ExperimentRunner):
    """Counts the runs :meth:`prewarm` reports as executed."""

    executed = 0

    def prewarm(self, triples):
        count = super().prewarm(triples)
        self.executed += count
        return count


class TestRunMatrices:
    """A spec's cells cover exactly what it builds from: after
    prewarming them, building may not trigger a single new simulation
    (the harness prewarms every wanted spec in one batch)."""

    TINY = RunSettings(n_events=1000, footprint_scale=0.01, seed=3)
    SPECS = {**ALL_FIGURES, "table3": TABLE3}

    @pytest.fixture(scope="class")
    def shared(self):
        return _CountingRunner(self.TINY)

    @pytest.mark.parametrize("fig_id", sorted(SPECS))
    def test_matrix_covers_figure(self, shared, fig_id):
        spec = dataclasses.replace(self.SPECS[fig_id],
                                   benchmarks=("mcf", "dc"))
        shared.prewarm(spec.cells())
        executed_before = shared.executed
        spec.build(shared)
        assert shared.executed == executed_before


class TestHarnessOrder:
    """``python -m repro.experiments`` prints figures in the paper's
    order, not in the string order of their ids.  Nothing is
    simulated: prewarm, every spec's build and Table III are stubs."""

    PAPER_ORDER = ["3", "4", "9", "10", "11", "12", "13", "13a", "14",
                   "14s", "15", "16"]

    @pytest.fixture
    def stubbed(self, monkeypatch):
        from repro.experiments import __main__ as harness
        from repro.experiments.figures import FigureSpec

        def stub(figure_id):
            return FigureResult(figure_id, "stub", [], [])

        monkeypatch.setattr(ExperimentRunner, "prewarm",
                            lambda self, triples: 0)
        monkeypatch.setattr(FigureSpec, "build",
                            lambda self, runner: stub(self.figure_id))
        monkeypatch.setattr(harness, "table3",
                            lambda runner: stub("table3"))
        return harness

    def test_all_prints_figures_in_paper_order(self, stubbed, capsys):
        assert stubbed.main(["--all", "--events", "100"]) == 0
        done = [line.split()[0][1:]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("[") and " done in " in line]
        assert done == ["t1", "t2", "t3"] + self.PAPER_ORDER

    def test_figure_choices_in_paper_order(self, stubbed, capsys):
        with pytest.raises(SystemExit):
            stubbed.main(["--help"])
        choices = "{" + ",".join(self.PAPER_ORDER + ["t1", "t2", "t3"]) + "}"
        assert choices in capsys.readouterr().out


class TestTables:
    def test_table1_matches_paper(self):
        result = table1()
        by_label = {row.label: row.values for row in result.rows}
        assert by_label["E-FAM"]["Security"] == 0.0
        assert by_label["E-FAM"]["Performance"] == 1.0
        assert by_label["I-FAM"]["Performance"] == 0.0
        assert by_label["I-FAM"]["Security"] == 1.0
        assert by_label["DeACT"]["Performance"] == 1.0
        assert by_label["DeACT"]["Security"] == 1.0
        assert by_label["DeACT"]["Avoid OS Changes"] == 1.0

    def test_table2_lists_configuration(self):
        rendered = table2().render()
        for fact in ("2GHz", "16GB", "1024 entries", "500ns"):
            assert fact in rendered

    def test_table3_with_runner_measures_mpki(self, runner):
        result = dataclasses.replace(TABLE3, benchmarks=("mcf",)).build(runner)
        row = result.rows[0]
        assert row.paper["MPKI"] == 73.0
        assert row.values["MPKI"] > 0


class TestReport:
    def sample(self):
        return FigureResult(
            figure_id="figX", title="Sample", series=["A", "B"],
            rows=[Row("alpha", {"A": 1.0, "B": 2.5}, {"A": 1.1}),
                  Row("beta", {"A": 3.0})],
            unit="x", notes="note text")

    def test_render_contains_everything(self):
        text = render_table(self.sample())
        assert "figX" in text and "Sample" in text
        assert "alpha" in text and "beta" in text
        assert "2.50" in text
        assert "note text" in text

    def test_missing_series_blank(self):
        text = render_table(self.sample())
        beta_line = [l for l in text.splitlines()
                     if l.startswith("beta")][0]
        assert "3.00" in beta_line

    def test_paper_values_beside_measured(self):
        assert render_paper_values(self.sample()).splitlines() == [
            "paper vs measured:", "  alpha A: paper 1.1, measured 1.00"]
        no_paper = FigureResult("figY", "t", ["A"], [Row("a", {"A": 1.0})])
        assert render_paper_values(no_paper) == ""

    def test_series_values(self):
        assert self.sample().series_values("A") == [1.0, 3.0]

    def test_value_lookup(self):
        assert self.sample().value("alpha", "B") == 2.5
        assert self.sample().value("gamma", "B") is None
