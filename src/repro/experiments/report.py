"""Result containers and ASCII rendering for the experiment harness.

Each figure builder returns a :class:`FigureResult`: an ordered list of
:class:`Row` records (one per bar/point in the paper's plot) plus
enough metadata to render a readable table and to set it against the
paper's reported values (:func:`render_paper_values`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["Row", "FigureResult", "render_paper_values", "render_table",
           "render_telemetry"]


@dataclass
class Row:
    """One plotted entity (a benchmark bar, a sweep point, ...).

    ``values`` maps series name (e.g. ``"I-FAM"``) to the measured
    number; ``paper`` optionally maps series name to the paper's
    reported value for the same entity.
    """

    label: str
    values: Dict[str, float] = field(default_factory=dict)
    paper: Dict[str, float] = field(default_factory=dict)


@dataclass
class FigureResult:
    """A regenerated table or figure."""

    figure_id: str
    title: str
    series: List[str]
    rows: List[Row]
    unit: str = ""
    notes: str = ""

    def value(self, label: str, series: str) -> Optional[float]:
        for row in self.rows:
            if row.label == label:
                return row.values.get(series)
        return None

    def series_values(self, series: str) -> List[float]:
        return [row.values[series] for row in self.rows
                if series in row.values]

    def render(self, width: int = 10, precision: int = 2) -> str:
        """Plain-text rendering of the figure as a table."""
        return render_table(self, width=width, precision=precision)


def render_telemetry(summary: Dict[str, float]) -> str:
    """Format an :meth:`ExperimentRunner.telemetry_summary` aggregate.

    Shows how much simulation work a report cost and the core-loop
    throughput it achieved — the per-job numbers live in the result
    cache under each entry's ``telemetry`` key.
    """
    lines = ["harness telemetry:"]
    runs = int(summary.get("runs", 0))
    with_telemetry = int(summary.get("runs_with_telemetry", 0))
    lines.append(f"  runs measured      : {with_telemetry} of {runs}")
    lines.append(f"  trace events       : {summary.get('events', 0.0):,.0f}")
    lines.append(f"  simulation wall    : {summary.get('wall_s', 0.0):.2f} s")
    lines.append(f"  events per second  : "
                 f"{summary.get('events_per_sec', 0.0):,.0f}")
    lines.append(f"  tag-store probes   : "
                 f"{summary.get('tag_probes', 0.0):,.0f} "
                 f"({summary.get('probes_per_event', 0.0):.2f}/event)")
    return "\n".join(lines)


def render_paper_values(figure: FigureResult) -> str:
    """The paper's quoted values next to the measured ones, one line
    per (row, series) the paper states; empty if it states none."""
    lines = []
    for row in figure.rows:
        for series, paper in sorted(row.paper.items()):
            measured = row.values.get(series)
            text = "-" if measured is None else f"{measured:.2f}"
            lines.append(f"  {row.label} {series}: paper {paper:g}, "
                         f"measured {text}")
    if lines:
        lines.insert(0, "paper vs measured:")
    return "\n".join(lines)


def render_table(figure: FigureResult, width: int = 10,
                 precision: int = 2) -> str:
    """Format a :class:`FigureResult` as an aligned ASCII table."""
    label_width = max([len(r.label) for r in figure.rows] + [len("bench")])
    headers = [f"{'bench':<{label_width}}"]
    for series in figure.series:
        headers.append(f"{series:>{width}}")
    lines = [f"{figure.figure_id}: {figure.title}"
             + (f" [{figure.unit}]" if figure.unit else "")]
    lines.append("  ".join(headers))
    lines.append("-" * len(lines[-1]))
    for row in figure.rows:
        cells = [f"{row.label:<{label_width}}"]
        for series in figure.series:
            value = row.values.get(series)
            if value is None:
                cells.append(" " * width)
            else:
                cells.append(f"{value:>{width}.{precision}f}")
        lines.append("  ".join(cells))
    if figure.notes:
        lines.append(f"note: {figure.notes}")
    return "\n".join(lines)
