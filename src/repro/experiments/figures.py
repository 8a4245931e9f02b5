"""Regeneration of every figure in the paper's evaluation.

Each ``figureN`` function runs (or recalls) the necessary simulations
through an :class:`~repro.experiments.runner.ExperimentRunner` and
returns a :class:`~repro.experiments.report.FigureResult` whose rows
carry both our measured values and the paper's reported numbers where
the text states them.

The sensitivity figures (13-15) follow the paper's presentation:
geometric means over the SPEC / PARSEC / GAP groups plus ``pf`` and
``dc`` individually ("we show geometric mean of the evaluated SPEC,
PARSEC and GAP benchmarks separately ... we show sensitivity results
only for dc benchmark among NPB benchmarks").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config.presets import (
    default_config,
    with_acm_bits,
    with_acm_subways,
    with_fabric_latency,
    with_nodes,
    with_stu_associativity,
    with_stu_entries,
)
from repro.experiments.report import FigureResult, Row
from repro.experiments.runner import ExperimentRunner
from repro.sim.stats import geometric_mean
from repro.workloads.catalog import SUITE_GROUPS, benchmark_names, get_profile

__all__ = [
    "figure3", "figure4", "figure9", "figure10", "figure11", "figure12",
    "figure13", "figure13_assoc", "figure14", "figure14_subways",
    "figure15", "figure16", "ALL_FIGURES", "SWEEP_BENCHES", "SWEEP_FIGURES",
    "figure_matrix",
]

#: Sensitivity-group x-axis entries (Figures 13-15).
_GROUP_LABELS = ["SPEC", "PARSEC", "GAP", "pf", "dc"]

#: Default sweep values, shared between each figure function's keyword
#: defaults and :func:`figure_matrix` so the prewarmed matrix always
#: covers exactly the runs the figure requests.
_FIG13_SIZES = (256, 512, 1024, 2048, 4096)
_FIG13A_ASSOCIATIVITIES = (4, 8, 16, 32, 64)
_FIG14_WIDTHS = (8, 16, 32)
_FIG14S_SUBWAYS = (1, 2, 3)
_FIG15_LATENCIES_NS = (100.0, 250.0, 500.0, 750.0, 1000.0, 3000.0, 6000.0)
_FIG16_NODE_COUNTS = (1, 2, 4, 8)

#: Architecture sets, shared the same way.
_ALL_ARCHS = ("e-fam", "i-fam", "deact-w", "deact-n")
_MOTIVATION_ARCHS = ("e-fam", "i-fam")
_DESIGN_ARCHS = ("i-fam", "deact-w", "deact-n")
_SPEEDUP_ARCHS = ("i-fam", "deact-n")

#: Paper-reported values quoted in the text (the ``Row.paper`` values
#: that ``python -m repro.experiments`` prints under each figure).  Keys follow (figure, label, series).
_PAPER_TEXT_VALUES: Dict[tuple, float] = {
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
}


def _benchmarks(subset: Optional[Sequence[str]] = None) -> List[str]:
    return list(subset) if subset else benchmark_names()


def _group_members(subset: Optional[Sequence[str]] = None) -> Dict[str, List[str]]:
    """Sensitivity groups filtered to an optional benchmark subset."""
    members = {}
    for label in _GROUP_LABELS:
        names = SUITE_GROUPS[label] if label in SUITE_GROUPS else [label]
        if subset:
            names = [n for n in names if n in subset]
        if names:
            members[label] = names
    return members


# ----------------------------------------------------------------------
# Motivation figures
# ----------------------------------------------------------------------
def figure3(runner: ExperimentRunner,
            benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 3: slowdown of I-FAM with respect to E-FAM."""
    rows = []
    for bench in _benchmarks(benchmarks):
        efam = runner.run(bench, "e-fam")
        ifam = runner.run(bench, "i-fam")
        paper = {}
        profile = get_profile(bench)
        if profile.paper_ifam_slowdown is not None:
            paper["I-FAM"] = profile.paper_ifam_slowdown
        rows.append(Row(label=bench,
                        values={"I-FAM": ifam.slowdown_vs(efam)},
                        paper=paper))
    return FigureResult(
        figure_id="fig3", title="Slowdown of I-FAM wrt E-FAM",
        series=["I-FAM"], rows=rows, unit="x",
        notes="higher = worse; paper outliers: cactus 11.6x, canl "
              "18.7x, ccsv 9.1x, sssp 20.6x")


def figure4(runner: ExperimentRunner,
            benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 4: % of requests at FAM that are address translation,
    E-FAM vs I-FAM."""
    rows = []
    for bench in _benchmarks(benchmarks):
        values = {}
        paper = {}
        for arch, series in (("e-fam", "E-FAM"), ("i-fam", "I-FAM")):
            result = runner.run(bench, arch)
            values[series] = 100.0 * result.fam_at_fraction
            key = ("fig4", bench, series)
            if key in _PAPER_TEXT_VALUES:
                paper[series] = _PAPER_TEXT_VALUES[key]
        rows.append(Row(label=bench, values=values, paper=paper))
    return FigureResult(
        figure_id="fig4",
        title="Address-translation share of FAM requests",
        series=["E-FAM", "I-FAM"], rows=rows, unit="%")


# ----------------------------------------------------------------------
# Design-evaluation figures
# ----------------------------------------------------------------------
def figure9(runner: ExperimentRunner,
            benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 9: access-control-metadata hit rate."""
    series_archs = [("I-FAM", "i-fam"), ("DeACT-W", "deact-w"),
                    ("DeACT-N", "deact-n")]
    rows = []
    for bench in _benchmarks(benchmarks):
        values = {}
        paper = {}
        for series, arch in series_archs:
            result = runner.run(bench, arch)
            values[series] = 100.0 * result.acm_hit_rate
            key = ("fig9", bench, series)
            if key in _PAPER_TEXT_VALUES:
                paper[series] = _PAPER_TEXT_VALUES[key]
        rows.append(Row(label=bench, values=values, paper=paper))
    return FigureResult(
        figure_id="fig9", title="Access control metadata hit rate",
        series=[s for s, _ in series_archs], rows=rows, unit="%",
        notes="DeACT-W ~= I-FAM (random FAM allocation defeats "
              "contiguity); DeACT-N highest")


def figure10(runner: ExperimentRunner,
             benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 10: FAM address-translation hit rate, I-FAM vs DeACT.

    DeACT-W and DeACT-N share the same in-DRAM translation cache, so
    the paper plots a single DeACT series; we measure it on DeACT-N.
    """
    rows = []
    for bench in _benchmarks(benchmarks):
        ifam = runner.run(bench, "i-fam")
        deact = runner.run(bench, "deact-n")
        values = {"I-FAM": 100.0 * ifam.translation_hit_rate,
                  "DeACT": 100.0 * deact.translation_hit_rate}
        paper = {}
        for series in ("I-FAM", "DeACT"):
            key = ("fig10", bench, series)
            if key in _PAPER_TEXT_VALUES:
                paper[series] = _PAPER_TEXT_VALUES[key]
        rows.append(Row(label=bench, values=values, paper=paper))
    return FigureResult(
        figure_id="fig10", title="FAM address translation hit rate",
        series=["I-FAM", "DeACT"], rows=rows, unit="%",
        notes="DeACT's in-DRAM cache dwarfs the STU cache: paper "
              "reports >90% for DeACT")


def figure11(runner: ExperimentRunner,
             benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 11: % address-translation requests observed at FAM."""
    series_archs = [("I-FAM", "i-fam"), ("DeACT-W", "deact-w"),
                    ("DeACT-N", "deact-n")]
    rows = []
    for bench in _benchmarks(benchmarks):
        values = {}
        for series, arch in series_archs:
            result = runner.run(bench, arch)
            values[series] = 100.0 * result.fam_at_fraction
        rows.append(Row(label=bench, values=values))
    return FigureResult(
        figure_id="fig11",
        title="Address translation share of FAM requests",
        series=[s for s, _ in series_archs], rows=rows, unit="%",
        notes="paper averages: I-FAM 23.97% -> DeACT-W 11.82% -> "
              "DeACT-N 1.77%")


def figure12(runner: ExperimentRunner,
             benchmarks: Optional[Sequence[str]] = None) -> FigureResult:
    """Figure 12: performance normalized to E-FAM (all four schemes)."""
    series_archs = [("E-FAM", "e-fam"), ("I-FAM", "i-fam"),
                    ("DeACT-W", "deact-w"), ("DeACT-N", "deact-n")]
    rows = []
    for bench in _benchmarks(benchmarks):
        efam = runner.run(bench, "e-fam")
        values = {}
        paper = {}
        for series, arch in series_archs:
            result = runner.run(bench, arch)
            values[series] = result.normalized_performance(efam)
            key = ("fig12", bench, series)
            if key in _PAPER_TEXT_VALUES:
                paper[series] = _PAPER_TEXT_VALUES[key]
        rows.append(Row(label=bench, values=values, paper=paper))
    return FigureResult(
        figure_id="fig12", title="Normalized performance wrt E-FAM",
        series=[s for s, _ in series_archs], rows=rows, unit="x",
        notes="paper: DeACT-N up to 4.59x over I-FAM (1.8x average); "
              "bc/lu/mg/sp see no gain")


# ----------------------------------------------------------------------
# Sensitivity figures
# ----------------------------------------------------------------------
def _group_speedup_rows(runner: ExperimentRunner, configs: Dict[str, object],
                        figure_key: str,
                        benchmarks: Optional[Sequence[str]] = None,
                        architecture: str = "deact-n") -> List[Row]:
    """Rows of geomean speedup-vs-I-FAM per sensitivity group.

    ``configs`` maps the series label (e.g. STU size) to the
    :class:`SystemConfig` to evaluate; each label becomes a series and
    each group a row, mirroring the paper's grouped bar charts.
    """
    members = _group_members(benchmarks)
    rows = []
    for label, names in members.items():
        values = {}
        paper = {}
        for series, config in configs.items():
            speedups = []
            for bench in names:
                ifam = runner.run(bench, "i-fam", config)
                deact = runner.run(bench, architecture, config)
                speedups.append(max(deact.speedup_over(ifam), 1e-9))
            values[series] = geometric_mean(speedups)
            key = (figure_key, label, series)
            if key in _PAPER_TEXT_VALUES:
                paper[series] = _PAPER_TEXT_VALUES[key]
        rows.append(Row(label=label, values=values, paper=paper))
    return rows


def figure13(runner: ExperimentRunner,
             benchmarks: Optional[Sequence[str]] = None,
             sizes: Sequence[int] = _FIG13_SIZES,
             ) -> FigureResult:
    """Figure 13: DeACT-N speedup over I-FAM vs STU cache size."""
    base = default_config()
    configs = {str(size): with_stu_entries(base, size) for size in sizes}
    rows = _group_speedup_rows(runner, configs, "fig13", benchmarks)
    return FigureResult(
        figure_id="fig13",
        title="Speedup wrt I-FAM vs STU cache entries",
        series=[str(s) for s in sizes], rows=rows, unit="x",
        notes="smaller STU -> bigger DeACT win (paper: PARSEC 3.45x at "
              "256 entries down to 1.75x at 4096)")


def figure13_assoc(runner: ExperimentRunner,
                   benchmarks: Optional[Sequence[str]] = None,
                   associativities: Sequence[int] = _FIG13A_ASSOCIATIVITIES,
                   ) -> FigureResult:
    """Section V-D.1 (text): the STU-associativity sweep."""
    base = default_config()
    configs = {str(assoc): with_stu_associativity(base, assoc)
               for assoc in associativities}
    rows = _group_speedup_rows(runner, configs, "fig13a", benchmarks)
    return FigureResult(
        figure_id="fig13a",
        title="Speedup wrt I-FAM vs STU associativity",
        series=[str(a) for a in associativities], rows=rows, unit="x",
        notes="paper (text): dc 3.26x at 4 ways, 2.66x at 32, "
              "saturating ~2.5x beyond")


def figure14(runner: ExperimentRunner,
             benchmarks: Optional[Sequence[str]] = None,
             widths: Sequence[int] = _FIG14_WIDTHS) -> FigureResult:
    """Figure 14: ACM width (8/16/32 bits) effect on speedup.

    Series are ``<arch>/<bits>`` pairs, matching the paper's grouped
    bars (I-FAM is the 1.0 reference at every width).
    """
    base = default_config()
    members = _group_members(benchmarks)
    series = []
    for bits in widths:
        series.extend([f"W/{bits}", f"N/{bits}"])
    rows = []
    for label, names in members.items():
        values = {}
        for bits in widths:
            config = with_acm_bits(base, bits)
            for arch, prefix in (("deact-w", "W"), ("deact-n", "N")):
                speedups = []
                for bench in names:
                    ifam = runner.run(bench, "i-fam", config)
                    deact = runner.run(bench, arch, config)
                    speedups.append(max(deact.speedup_over(ifam), 1e-9))
                values[f"{prefix}/{bits}"] = geometric_mean(speedups)
        rows.append(Row(label=label, values=values))
    return FigureResult(
        figure_id="fig14", title="ACM size effect on performance",
        series=series, rows=rows, unit="x",
        notes="DeACT-W barely moves with width (contiguous caching is "
              "wasted under random allocation)")


def figure14_subways(runner: ExperimentRunner,
                     benchmarks: Optional[Sequence[str]] = None,
                     subways: Sequence[int] = _FIG14S_SUBWAYS) -> FigureResult:
    """Figure 14's DeACT-N pairs-per-way study (1, 2 or 3 {tag, ACM}
    pairs per STU way)."""
    base = default_config()
    configs = {str(n): with_acm_subways(base, n) for n in subways}
    rows = _group_speedup_rows(runner, configs, "fig14s", benchmarks)
    return FigureResult(
        figure_id="fig14s",
        title="DeACT-N speedup vs {tag, ACM} pairs per way",
        series=[str(n) for n in subways], rows=rows, unit="x",
        notes="paper (SPEC): 2.62x/2.52x/1.85x for 1/2/3 pairs at "
              "32/16/8-bit ACM respectively — one pair reduces "
              "DeACT-N to DeACT-W-level ACM reach")


def figure15(runner: ExperimentRunner,
             benchmarks: Optional[Sequence[str]] = None,
             latencies_ns: Sequence[float] = _FIG15_LATENCIES_NS,
             ) -> FigureResult:
    """Figure 15: fabric network latency sweep."""
    base = default_config()
    configs = {f"{int(lat)}": with_fabric_latency(base, lat)
               for lat in latencies_ns}
    rows = _group_speedup_rows(runner, configs, "fig15", benchmarks)
    return FigureResult(
        figure_id="fig15",
        title="Speedup wrt I-FAM vs fabric latency (ns)",
        series=list(configs), rows=rows, unit="x",
        notes="longer fabric -> each avoided walk saves more (paper: "
              "pf 1.79x at 100ns, 3.3x at 6us)")


def figure16(runner: ExperimentRunner,
             benchmarks: Optional[Sequence[str]] = None,
             node_counts: Sequence[int] = _FIG16_NODE_COUNTS) -> FigureResult:
    """Figure 16: node-count sweep (pf and dc, as in the paper)."""
    base = default_config()
    benches = list(benchmarks) if benchmarks else ["pf", "dc"]
    rows = []
    for bench in benches:
        values = {}
        paper = {}
        for nodes in node_counts:
            config = with_nodes(base, nodes)
            ifam = runner.run(bench, "i-fam", config)
            deact = runner.run(bench, "deact-n", config)
            values[str(nodes)] = deact.speedup_over(ifam)
            key = ("fig16", bench, str(nodes))
            if key in _PAPER_TEXT_VALUES:
                paper[str(nodes)] = _PAPER_TEXT_VALUES[key]
        rows.append(Row(label=bench, values=values, paper=paper))
    return FigureResult(
        figure_id="fig16",
        title="Speedup wrt I-FAM vs number of nodes",
        series=[str(n) for n in node_counts], rows=rows, unit="x",
        notes="sharing the fabric amplifies I-FAM's walk traffic, so "
              "DeACT's win grows with node count")


# ----------------------------------------------------------------------
# Run matrices (for parallel prewarming)
# ----------------------------------------------------------------------
#: Sensitivity sweeps that plot DeACT-N speedup over I-FAM: the config
#: transform and the shared default-value constants.
_FIGURE_SWEEPS = {
    "13": (with_stu_entries, _FIG13_SIZES),
    "13a": (with_stu_associativity, _FIG13A_ASSOCIATIVITIES),
    "14s": (with_acm_subways, _FIG14S_SUBWAYS),
    "15": (with_fabric_latency, _FIG15_LATENCIES_NS),
}

#: Architectures each default-config figure runs.
_FIGURE_ARCHS = {
    "3": _MOTIVATION_ARCHS,
    "4": _MOTIVATION_ARCHS,
    "9": _DESIGN_ARCHS,
    "10": _SPEEDUP_ARCHS,
    "11": _DESIGN_ARCHS,
    "12": _ALL_ARCHS,
}


def figure_matrix(figure_id: str,
                  benchmarks: Optional[Sequence[str]] = None,
                  ) -> List[tuple]:
    """The ``(benchmark, architecture, config)`` runs ``figureN`` will
    request, for batch execution by a sweep pool.

    :meth:`ExperimentRunner.prewarm` consumes this to run a figure's
    whole matrix in parallel before the (serial, memo-hitting) figure
    builder assembles rows; the builder then performs zero new runs.
    (``tests/test_experiments.py::TestRunMatrices`` enforces exact
    coverage for every figure.)
    """
    base = default_config()
    if figure_id in _FIGURE_ARCHS:
        return [(bench, arch, base) for bench in _benchmarks(benchmarks)
                for arch in _FIGURE_ARCHS[figure_id]]
    if figure_id in _FIGURE_SWEEPS:
        transform, values = _FIGURE_SWEEPS[figure_id]
        members = _group_members(benchmarks)
        benches = sorted({b for names in members.values() for b in names})
        return [(bench, arch, transform(base, value))
                for value in values for bench in benches
                for arch in _SPEEDUP_ARCHS]
    if figure_id == "14":
        members = _group_members(benchmarks)
        benches = sorted({b for names in members.values() for b in names})
        return [(bench, arch, with_acm_bits(base, bits))
                for bits in _FIG14_WIDTHS for bench in benches
                for arch in _DESIGN_ARCHS]
    if figure_id == "16":
        benches = list(benchmarks) if benchmarks else ["pf", "dc"]
        return [(bench, arch, with_nodes(base, nodes))
                for nodes in _FIG16_NODE_COUNTS for bench in benches
                for arch in _SPEEDUP_ARCHS]
    raise KeyError(f"no run matrix for figure {figure_id!r}")


#: Sensitivity figures whose sweep matrices get expensive; the harness
#: CLI runs them over :data:`SWEEP_BENCHES` only.
SWEEP_FIGURES = frozenset({"13", "13a", "14", "14s", "15"})
#: The paper's sensitivity groups' benchmarks (SPEC, PARSEC and GAP
#: members plus pf and dc).
SWEEP_BENCHES = ("mcf", "cactus", "astar", "frqm", "canl", "bc", "cc",
                 "ccsv", "sssp", "pf", "dc")

#: Registry used by the harness CLI, ``python -m repro.experiments``.
ALL_FIGURES = {
    "3": figure3,
    "4": figure4,
    "9": figure9,
    "10": figure10,
    "11": figure11,
    "12": figure12,
    "13": figure13,
    "13a": figure13_assoc,
    "14": figure14,
    "14s": figure14_subways,
    "15": figure15,
    "16": figure16,
}
