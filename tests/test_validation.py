"""Tests for the shape-validation module, including full-scale claim
checks against the cached experiment results."""

import os

import pytest

from repro.experiments.figures import (
    SWEEP_BENCHES,
    figure3,
    figure4,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure15,
    figure16,
)
from repro.experiments.report import FigureResult, Row
from repro.experiments.runner import ExperimentRunner, RunSettings
from repro.experiments.validation import (
    CLAIMS,
    check_figure,
    OUTLIERS,
    INSENSITIVE,
)

_CACHE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "results", "run_cache.json")


class TestClaimMachinery:
    def test_unknown_figure_has_no_claims(self):
        figure = FigureResult("figZZ", "t", [], [])
        assert check_figure(figure) == []

    def test_failing_claim_reported(self):
        # Build a fig4 where I-FAM does NOT add AT traffic.
        figure = FigureResult(
            "fig4", "t", ["E-FAM", "I-FAM"],
            [Row("mcf", {"E-FAM": 50.0, "I-FAM": 10.0})])
        outcomes = check_figure(figure)
        assert len(outcomes) == 1
        assert not outcomes[0].passed

    def test_missing_data_is_failure_not_crash(self):
        figure = FigureResult("fig4", "t", ["E-FAM"],
                              [Row("mcf", {"E-FAM": 50.0})])
        outcomes = check_figure(figure)
        assert not outcomes[0].passed

    def test_series_falling_end_to_end_does_not_grow(self):
        # dc's DeACT-N speedup at 16k events / 0.06 scale, 1 -> 4
        # nodes: each step falls by less than the 0.1 adjacent slack,
        # but the series falls end to end.
        figure = FigureResult("fig16", "t", ["1", "4"],
                              [Row("dc", {"1": 0.889, "4": 0.865})])
        assert not any(o.passed for o in check_figure(figure))
        rising = FigureResult("fig16", "t", ["1", "2", "4"],
                              [Row("dc", {"1": 0.865, "2": 0.86,
                                          "4": 0.889})])
        assert all(o.passed for o in check_figure(rising))

    def test_series_rising_end_to_end_does_not_shrink(self):
        figure = FigureResult("fig13", "t", ["256", "1024", "4096"],
                              [Row("SPEC", {"256": 1.0, "1024": 1.05,
                                            "4096": 1.02})])
        assert not any(o.passed for o in check_figure(figure))
        falling = FigureResult("fig13", "t", ["256", "1024", "4096"],
                               [Row("SPEC", {"256": 2.13, "1024": 1.08,
                                             "4096": 0.88})])
        assert all(o.passed for o in check_figure(falling))

    def test_claim_registry_covers_main_figures(self):
        for figure_id in ("fig3", "fig4", "fig9", "fig10", "fig11",
                          "fig12", "fig13", "fig15", "fig16"):
            assert CLAIMS[figure_id], figure_id

    def test_outlier_and_insensitive_sets_disjoint(self):
        assert not set(OUTLIERS) & set(INSENSITIVE)


@pytest.mark.skipif(not os.path.exists(_CACHE),
                    reason="full-scale result cache not present")
class TestFullScaleClaims:
    """The paper's claims hold at the harness's full experiment scale.

    These read the run cache that ``python -m repro.experiments --all
    --cache results/run_cache.json`` writes (CI's nightly ``harness``
    job) and build each figure as that command does, so no simulation
    happens here.
    """

    @pytest.fixture(scope="class")
    def runner(self):
        settings = RunSettings(n_events=150_000, footprint_scale=0.12,
                               seed=7)
        return ExperimentRunner(settings, cache_path=_CACHE)

    @pytest.fixture(scope="class")
    def figures(self, runner):
        return {
            "fig3": figure3(runner),
            "fig4": figure4(runner),
            "fig9": figure9(runner),
            "fig10": figure10(runner),
            "fig11": figure11(runner),
            "fig12": figure12(runner),
            "fig13": figure13(runner, benchmarks=SWEEP_BENCHES),
            "fig15": figure15(runner, benchmarks=SWEEP_BENCHES),
            "fig16": figure16(runner),
        }

    def test_all_claims_hold(self, figures):
        assert sorted(figures) == sorted(CLAIMS)
        failures = {figure_id: [o.claim.description
                                for o in check_figure(figure)
                                if not o.passed]
                    for figure_id, figure in figures.items()}
        assert not any(failures.values()), f"claims failed: {failures}"
