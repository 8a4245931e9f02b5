"""Tests for the experiment harness (runner, figures, tables,
reporting)."""

import dataclasses
import os

import pytest

from repro.config.presets import default_config, with_stu_entries
from repro.errors import ConfigError, ReproError
from repro.experiments.figures import (
    ALL_FIGURES,
    figure3,
    figure12,
    figure16,
    figure_matrix,
)
from repro.experiments.report import (
    FigureResult,
    Row,
    render_paper_values,
    render_table,
)
from repro.experiments.runner import ExperimentRunner, RunSettings, \
    SweepJob, _result_to_dict, job_key
from repro.experiments.tables import table1, table2, table3, table3_matrix

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


class TestFigures:
    def test_figure3_rows_and_paper_refs(self, runner):
        result = figure3(runner, benchmarks=["mcf", "sssp"])
        assert result.figure_id == "fig3"
        assert [row.label for row in result.rows] == ["mcf", "sssp"]
        assert result.value("mcf", "I-FAM") > 1.0  # I-FAM always slower
        sssp_row = result.rows[1]
        assert sssp_row.paper["I-FAM"] == 20.6

    def test_figure12_normalization(self, runner):
        result = figure12(runner, benchmarks=["mcf"])
        assert result.value("mcf", "E-FAM") == pytest.approx(1.0)
        assert result.value("mcf", "I-FAM") < 1.0

    def test_figure16_uses_node_counts(self, runner):
        result = figure16(runner, benchmarks=["pf"],
                          node_counts=(1, 2))
        assert result.series == ["1", "2"]
        assert result.rows[0].label == "pf"

    def test_registry_complete(self):
        for fig in ("3", "4", "9", "10", "11", "12", "13", "13a", "14",
                    "14s", "15", "16"):
            assert fig in ALL_FIGURES


class TestRunMatrices:
    """``figure_matrix`` must cover exactly what each figure requests:
    after prewarming the matrix, building the figure may not trigger a
    single new simulation."""

    TINY = RunSettings(n_events=1000, footprint_scale=0.01, seed=3)
    BENCHES = ["mcf", "dc"]

    @pytest.fixture(scope="class")
    def shared(self):
        return ExperimentRunner(self.TINY)

    @pytest.mark.parametrize("fig_id", sorted(ALL_FIGURES))
    def test_matrix_covers_figure(self, shared, fig_id):
        shared.prewarm(figure_matrix(fig_id, self.BENCHES))
        memo_before = set(shared._memo)
        ALL_FIGURES[fig_id](shared, benchmarks=self.BENCHES)
        assert set(shared._memo) == memo_before

    def test_matrix_covers_table3(self, shared):
        shared.prewarm(table3_matrix(self.BENCHES))
        memo_before = set(shared._memo)
        table3(shared, benchmarks=self.BENCHES)
        assert set(shared._memo) == memo_before

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            figure_matrix("99")


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
        result = table3(runner, benchmarks=["mcf"])
        row = result.rows[0]
        assert row.paper["MPKI"] == 73.0
        assert row.values["MPKI"] > 0

    def test_table3_without_runner_paper_only(self):
        result = table3(None, benchmarks=["mcf"])
        assert "MPKI" not in result.rows[0].values


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
