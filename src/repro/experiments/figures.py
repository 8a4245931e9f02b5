"""Regeneration of every figure in the paper's evaluation.

Each figure is one :class:`FigureSpec`: its series, each a ``(label,
architecture, config)`` triple, the metric it plots (optionally
relative to a baseline architecture under the same config), and
whether its rows are benchmarks or the paper's sensitivity groups.
:meth:`FigureSpec.cells` is the one enumeration of the runs a figure
reads, which the harness prewarms in one batch;
:meth:`FigureSpec.build` assembles the
:class:`~repro.experiments.report.FigureResult` from exactly those
runs, beside the paper's values from :data:`PAPER_VALUES`.

The sensitivity figures (13-15) follow the paper's presentation:
geometric means over the SPEC / PARSEC / GAP groups plus ``pf`` and
``dc`` individually ("we show geometric mean of the evaluated SPEC,
PARSEC and GAP benchmarks separately ... we show sensitivity results
only for dc benchmark among NPB benchmarks").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config.presets import (
    default_config,
    with_acm_bits,
    with_acm_subways,
    with_fabric_latency,
    with_nodes,
    with_stu_associativity,
    with_stu_entries,
)
from repro.config.system import SystemConfig
from repro.core.results import RunResult
from repro.experiments.report import FigureResult, Row
from repro.experiments.runner import ExperimentRunner
from repro.sim.stats import geometric_mean
from repro.workloads.catalog import SUITE_GROUPS, benchmark_names, get_profile

__all__ = ["FigureSpec", "ALL_FIGURES", "PAPER_VALUES"]

#: Every paper value, keyed (figure, label, series): the ``Row.paper``
#: values that ``python -m repro.experiments`` prints under each figure.
#: The text's quotes, then the catalog's Fig. 3 slowdowns and Table III
#: MPKI.
PAPER_VALUES: Dict[tuple, float] = {
    ("fig4", "canl", "E-FAM"): 44.36,
    ("fig4", "canl", "I-FAM"): 84.13,
    ("fig4", "cactus", "E-FAM"): 1.81,
    ("fig4", "cactus", "I-FAM"): 53.69,
    ("fig9", "cactus", "DeACT-N"): 76.0,
    ("fig10", "canl", "I-FAM"): 46.44,
    ("fig10", "canl", "DeACT"): 95.88,
    ("fig12", "mcf", "I-FAM"): 0.39,
    ("fig12", "mcf", "DeACT-W"): 0.70,
    ("fig12", "mcf", "DeACT-N"): 0.92,
    ("fig12", "canl", "DeACT-N"): 0.14,
    ("fig13", "PARSEC", "256"): 3.45,
    ("fig13", "PARSEC", "4096"): 1.75,
    ("fig13", "dc", "256"): 4.68,
    ("fig15", "pf", "100"): 1.79,
    ("fig15", "pf", "6000"): 3.30,
    ("fig16", "dc", "1"): 2.92,
    ("fig16", "dc", "8"): 3.26,
    **{("fig3", name, "I-FAM"): get_profile(name).paper_ifam_slowdown
       for name in benchmark_names()
       if get_profile(name).paper_ifam_slowdown is not None},
    **{("table3", name, "MPKI"): float(get_profile(name).paper_mpki)
       for name in benchmark_names()
       if get_profile(name).paper_mpki is not None},
}


@dataclass(frozen=True)
class FigureSpec:
    """One figure: which runs it reads and how it turns them into rows.

    ``metric`` maps a run to its plotted value; with a ``baseline``
    architecture it takes that architecture's run under the same
    config as its second argument.  Benchmark rows plot the metric
    itself (a one-value geometric mean can differ in its last bit);
    ``grouped`` rows plot the geometric mean over the members of each
    sensitivity group (:data:`SUITE_GROUPS`) in ``benchmarks``, even a
    one-member group such as ``pf``.
    """

    figure_id: str
    title: str
    series: Tuple[Tuple[str, str, SystemConfig], ...]
    metric: Callable[..., float]
    baseline: Optional[str] = None
    benchmarks: Tuple[str, ...] = field(
        default_factory=lambda: tuple(benchmark_names()))
    grouped: bool = False
    unit: str = ""
    notes: str = ""

    def _rows(self) -> List[Tuple[str, List[str]]]:
        """``(label, benchmarks)`` for every row, in plot order."""
        if not self.grouped:
            return [(bench, [bench]) for bench in self.benchmarks]
        groups = [(label, [bench for bench in members
                           if bench in self.benchmarks])
                  for label, members in SUITE_GROUPS.items()]
        return [(label, members) for label, members in groups if members]

    def cells(self) -> List[Tuple[str, str, SystemConfig]]:
        """Every ``(benchmark, architecture, config)`` run the figure
        reads; :meth:`build` reads no other."""
        baseline = (self.baseline,) if self.baseline else ()
        return [(bench, run_arch, config)
                for _, members in self._rows() for bench in members
                for _, arch, config in self.series
                for run_arch in (arch,) + baseline]

    def build(self, runner: ExperimentRunner) -> FigureResult:
        """The figure, from ``runner``'s results for :meth:`cells`."""
        rows = []
        for label, members in self._rows():
            values, paper = {}, {}
            for series, arch, config in self.series:
                measured = [self._value(runner, bench, arch, config)
                            for bench in members]
                values[series] = (geometric_mean(measured) if self.grouped
                                  else measured[0])
                key = (self.figure_id, label, series)
                if key in PAPER_VALUES:
                    paper[series] = PAPER_VALUES[key]
            rows.append(Row(label=label, values=values, paper=paper))
        return FigureResult(
            figure_id=self.figure_id, title=self.title,
            series=[series for series, _, _ in self.series], rows=rows,
            unit=self.unit, notes=self.notes)

    def _value(self, runner: ExperimentRunner, bench: str, arch: str,
               config: SystemConfig) -> float:
        result = runner.run(bench, arch, config)
        if self.baseline is None:
            return self.metric(result)
        return self.metric(result, runner.run(bench, self.baseline, config))


_BASE = default_config()


def _sweep(transform, values) -> Tuple[Tuple[str, str, SystemConfig], ...]:
    """DeACT-N series for a config sweep: one per value, labelled by it."""
    return tuple((f"{value:g}", "deact-n", transform(_BASE, value))
                 for value in values)


#: Registry used by the harness CLI, ``python -m repro.experiments``.
ALL_FIGURES: Dict[str, FigureSpec] = {spec.figure_id[3:]: spec for spec in (
    # Motivation.
    FigureSpec(
        "fig3", "Slowdown of I-FAM wrt E-FAM",
        series=(("I-FAM", "i-fam", _BASE),),
        metric=RunResult.slowdown_vs, baseline="e-fam", unit="x",
        notes="higher = worse; paper outliers: cactus 11.6x, canl "
              "18.7x, ccsv 9.1x, sssp 20.6x"),
    FigureSpec(
        "fig4", "Address-translation share of FAM requests",
        series=(("E-FAM", "e-fam", _BASE), ("I-FAM", "i-fam", _BASE)),
        metric=lambda r: 100.0 * r.fam_at_fraction, unit="%"),
    # Design evaluation.
    FigureSpec(
        "fig9", "Access control metadata hit rate",
        series=(("I-FAM", "i-fam", _BASE), ("DeACT-W", "deact-w", _BASE),
                ("DeACT-N", "deact-n", _BASE)),
        metric=lambda r: 100.0 * r.acm_hit_rate, unit="%",
        notes="DeACT-W ~= I-FAM (random FAM allocation defeats "
              "contiguity); DeACT-N highest"),
    # DeACT-W and DeACT-N share the in-DRAM translation cache, so the
    # paper plots one DeACT series; it is measured on DeACT-N.
    FigureSpec(
        "fig10", "FAM address translation hit rate",
        series=(("I-FAM", "i-fam", _BASE), ("DeACT", "deact-n", _BASE)),
        metric=lambda r: 100.0 * r.translation_hit_rate, unit="%",
        notes="DeACT's in-DRAM cache dwarfs the STU cache: paper "
              "reports >90% for DeACT"),
    FigureSpec(
        "fig11", "Address translation share of FAM requests",
        series=(("I-FAM", "i-fam", _BASE), ("DeACT-W", "deact-w", _BASE),
                ("DeACT-N", "deact-n", _BASE)),
        metric=lambda r: 100.0 * r.fam_at_fraction, unit="%",
        notes="paper averages: I-FAM 23.97% -> DeACT-W 11.82% -> "
              "DeACT-N 1.77%"),
    FigureSpec(
        "fig12", "Normalized performance wrt E-FAM",
        series=(("E-FAM", "e-fam", _BASE), ("I-FAM", "i-fam", _BASE),
                ("DeACT-W", "deact-w", _BASE),
                ("DeACT-N", "deact-n", _BASE)),
        metric=RunResult.normalized_performance, baseline="e-fam",
        unit="x",
        notes="paper: DeACT-N up to 4.59x over I-FAM (1.8x average); "
              "bc/lu/mg/sp see no gain"),
    # Sensitivity: DeACT speedup over I-FAM under each config.
    FigureSpec(
        "fig13", "Speedup wrt I-FAM vs STU cache entries",
        series=_sweep(with_stu_entries, (256, 512, 1024, 2048, 4096)),
        metric=RunResult.speedup_over, baseline="i-fam", grouped=True,
        unit="x",
        notes="smaller STU -> bigger DeACT win (paper: PARSEC 3.45x at "
              "256 entries down to 1.75x at 4096)"),
    # Section V-D.1 reports the STU-associativity sweep in text only.
    FigureSpec(
        "fig13a", "Speedup wrt I-FAM vs STU associativity",
        series=_sweep(with_stu_associativity, (4, 8, 16, 32, 64)),
        metric=RunResult.speedup_over, baseline="i-fam", grouped=True,
        unit="x",
        notes="paper (text): dc 3.26x at 4 ways, 2.66x at 32, "
              "saturating ~2.5x beyond"),
    # Series are <arch>/<bits> pairs, matching the paper's grouped bars
    # (I-FAM is the 1.0 reference at every width).
    FigureSpec(
        "fig14", "ACM size effect on performance",
        series=tuple((f"{prefix}/{bits}", arch, with_acm_bits(_BASE, bits))
                     for bits in (8, 16, 32)
                     for prefix, arch in (("W", "deact-w"), ("N", "deact-n"))),
        metric=RunResult.speedup_over, baseline="i-fam", grouped=True,
        unit="x",
        notes="DeACT-W barely moves with width (contiguous caching is "
              "wasted under random allocation)"),
    # DeACT-N with 1, 2 or 3 {tag, ACM} pairs per STU way.
    FigureSpec(
        "fig14s", "DeACT-N speedup vs {tag, ACM} pairs per way",
        series=_sweep(with_acm_subways, (1, 2, 3)),
        metric=RunResult.speedup_over, baseline="i-fam", grouped=True,
        unit="x",
        notes="paper (SPEC): 2.62x/2.52x/1.85x for 1/2/3 pairs at "
              "32/16/8-bit ACM respectively — one pair reduces "
              "DeACT-N to DeACT-W-level ACM reach"),
    FigureSpec(
        "fig15", "Speedup wrt I-FAM vs fabric latency (ns)",
        series=_sweep(with_fabric_latency,
                      (100.0, 250.0, 500.0, 750.0, 1000.0, 3000.0, 6000.0)),
        metric=RunResult.speedup_over, baseline="i-fam", grouped=True,
        unit="x",
        notes="longer fabric -> each avoided walk saves more (paper: "
              "pf 1.79x at 100ns, 3.3x at 6us)"),
    # Node-count sweep over pf and dc, as in the paper.
    FigureSpec(
        "fig16", "Speedup wrt I-FAM vs number of nodes",
        series=_sweep(with_nodes, (1, 2, 4, 8)),
        metric=RunResult.speedup_over, baseline="i-fam",
        benchmarks=("pf", "dc"), unit="x",
        notes="sharing the fabric amplifies I-FAM's walk traffic, so "
              "DeACT's win grows with node count"),
)}
