"""Tests for the experiment harness (runner, figures, tables,
reporting)."""

import os

import pytest

from repro.config.presets import default_config, with_stu_entries
from repro.errors import ReproError
from repro.experiments.figures import (
    ALL_FIGURES,
    figure3,
    figure12,
    figure16,
    figure_matrix,
)
from repro.experiments.report import FigureResult, Row, render_table
from repro.experiments.runner import ExperimentRunner, RunSettings, \
    _result_to_dict
from repro.experiments.tables import table1, table2, table3, table3_matrix

FAST = RunSettings(n_events=2500, footprint_scale=0.02, seed=3)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(FAST)


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
        assert "16GB" in rendered
        assert "1024 entries" in rendered

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

    def test_round_trip_dict(self):
        original = self.sample()
        rebuilt = FigureResult.from_dict(original.to_dict())
        assert rebuilt.figure_id == original.figure_id
        assert rebuilt.rows[0].values == original.rows[0].values
        assert rebuilt.rows[0].paper == original.rows[0].paper

    def test_series_values(self):
        assert self.sample().series_values("A") == [1.0, 3.0]

    def test_value_lookup(self):
        assert self.sample().value("alpha", "B") == 2.5
        assert self.sample().value("gamma", "B") is None


class TestGenerateExperimentsScript:
    """The regeneration script's ``--jobs`` plumbing (ROADMAP
    follow-up): flag parsing only — the full matrix is far too heavy
    for a unit test, and the pool path itself is covered by
    tests/test_sweep.py and tests/test_determinism.py."""

    @staticmethod
    def _load_script():
        import importlib.util
        import pathlib

        path = (pathlib.Path(__file__).resolve().parent.parent
                / "scripts" / "generate_experiments_md.py")
        spec = importlib.util.spec_from_file_location(
            "generate_experiments_md", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_jobs_flag_parses(self):
        module = self._load_script()
        assert module._parse_args([]).jobs == 1
        assert module._parse_args(["--jobs", "4"]).jobs == 4

    def test_non_positive_jobs_rejected(self):
        import pytest

        module = self._load_script()
        with pytest.raises(SystemExit):
            module._parse_args(["--jobs", "0"])
