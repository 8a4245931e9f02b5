"""Tests for the ASCII table renderer."""

from repro.experiments.report import FigureResult, Row, render_table


class TestRenderTableEdgeCases:
    def test_empty_values_render_blank(self):
        figure = FigureResult("f", "t", ["A", "B"],
                              [Row("r", {"A": 1.0})])
        text = render_table(figure)
        assert "1.00" in text

    def test_precision(self):
        figure = FigureResult("f", "t", ["A"], [Row("r", {"A": 1.23456})])
        assert "1.235" in render_table(figure, precision=3)
