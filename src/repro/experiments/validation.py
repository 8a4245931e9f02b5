"""Shape validation: the paper's qualitative claims as executable
checks.

Absolute numbers differ between simulators, but the paper's evaluation
makes directional claims that any faithful reproduction must satisfy.
This module encodes them as checks over :class:`FigureResult` objects;
``validate_all`` returns a report listing every claim with a pass/fail
verdict, and the test suite asserts them at full experiment scale via
the cached results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.experiments.report import FigureResult

__all__ = ["Claim", "ClaimOutcome", "check_figure", "CLAIMS"]

#: The paper's translation-sensitive outliers (Figure 3's labeled bars).
OUTLIERS = ("cactus", "canl", "ccsv", "sssp")
#: Benchmarks the paper says see no DeACT gain (Section V-C).
INSENSITIVE = ("bc", "lu", "mg", "sp")


@dataclass(frozen=True)
class Claim:
    """One directional claim from the paper's evaluation text."""

    figure_id: str
    description: str
    check: Callable[[FigureResult], bool]


@dataclass
class ClaimOutcome:
    claim: Claim
    passed: bool
    detail: str = ""


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _fig3_outliers_worst(figure: FigureResult) -> bool:
    """Every outlier's I-FAM slowdown exceeds every insensitive
    benchmark's."""
    outliers = [figure.value(b, "I-FAM") for b in OUTLIERS]
    steady = [figure.value(b, "I-FAM") for b in INSENSITIVE]
    if None in outliers or None in steady:
        return False
    return min(outliers) > max(steady)


def _fig4_indirection_adds_at(figure: FigureResult) -> bool:
    """I-FAM's AT share exceeds E-FAM's for every benchmark."""
    return all(row.values["I-FAM"] > row.values["E-FAM"]
               for row in figure.rows)


def _fig9_w_tracks_ifam(figure: FigureResult) -> bool:
    """DeACT-W's ACM hit rate is not improved over I-FAM (within a
    small tolerance), per Section III-D."""
    return all(abs(row.values["DeACT-W"] - row.values["I-FAM"]) < 5.0
               for row in figure.rows)


def _fig9_n_highest(figure: FigureResult) -> bool:
    """DeACT-N's ACM hit rate is the highest of the three."""
    return all(row.values["DeACT-N"] >=
               max(row.values["I-FAM"], row.values["DeACT-W"]) - 0.5
               for row in figure.rows)


def _fig10_deact_over_90(figure: FigureResult) -> bool:
    """DeACT's translation hit rate is 'more than 90%' on average
    (with a small slack for scaled traces)."""
    return _mean(figure.series_values("DeACT")) > 88.0


def _fig10_deact_ge_ifam(figure: FigureResult) -> bool:
    return all(row.values["DeACT"] >= row.values["I-FAM"] - 1.0
               for row in figure.rows)


def _fig11_deact_cuts_at(figure: FigureResult) -> bool:
    """Average AT share at FAM decreases I-FAM -> DeACT-W -> DeACT-N."""
    ifam = _mean(figure.series_values("I-FAM"))
    w = _mean(figure.series_values("DeACT-W"))
    n = _mean(figure.series_values("DeACT-N"))
    return ifam > n and w > n


def _fig12_deact_recovers_outliers(figure: FigureResult) -> bool:
    """For the outliers, DeACT-N lands between I-FAM and E-FAM."""
    for bench in OUTLIERS:
        ifam = figure.value(bench, "I-FAM")
        deact = figure.value(bench, "DeACT-N")
        if ifam is None or deact is None or not ifam < deact < 1.0:
            return False
    return True


def _fig12_no_gain_for_insensitive(figure: FigureResult) -> bool:
    """bc/lu/mg/sp: DeACT does not meaningfully improve on I-FAM
    (Section V-C).  'Meaningfully' is a 10% band — the outliers gain
    50-90%, so the separation stays unambiguous."""
    for bench in INSENSITIVE:
        ifam = figure.value(bench, "I-FAM")
        deact = figure.value(bench, "DeACT-N")
        if ifam is None or deact is None or deact > ifam * 1.10:
            return False
    return True


def _fig12_n_beats_w(figure: FigureResult) -> bool:
    """DeACT-N never trails DeACT-W (the Figure 8c refinement pays)."""
    return all(row.values["DeACT-N"] >= row.values["DeACT-W"] - 0.01
               for row in figure.rows)


def _monotone_rows(figure: FigureResult, increasing: bool,
                   tolerance: float = 0.1) -> bool:
    """Each row's series values trend monotonically: no adjacent step
    goes the wrong way by more than ``tolerance``, and the last value
    lies strictly beyond the first in the claimed direction (the slack
    alone would pass a series that falls end to end)."""
    for row in figure.rows:
        values = [row.values[s] for s in figure.series
                  if s in row.values]
        for a, b in zip(values, values[1:]):
            if increasing and b < a - tolerance:
                return False
            if not increasing and b > a + tolerance:
                return False
        if values and not (values[-1] > values[0] if increasing
                           else values[-1] < values[0]):
            return False
    return True


CLAIMS: Dict[str, List[Claim]] = {
    "fig3": [Claim("fig3", "the paper's four outliers suffer the "
                           "largest I-FAM slowdowns",
                   _fig3_outliers_worst)],
    "fig4": [Claim("fig4", "indirection raises the AT share at FAM "
                           "for every benchmark",
                   _fig4_indirection_adds_at)],
    "fig9": [
        Claim("fig9", "DeACT-W's ACM hit rate is not improved over "
                      "I-FAM", _fig9_w_tracks_ifam),
        Claim("fig9", "DeACT-N has the highest ACM hit rate",
              _fig9_n_highest),
    ],
    "fig10": [
        Claim("fig10", "DeACT's translation hit rate averages above "
                       "90%", _fig10_deact_over_90),
        Claim("fig10", "DeACT's translation hit rate never trails "
                       "I-FAM's", _fig10_deact_ge_ifam),
    ],
    "fig11": [Claim("fig11", "DeACT-N cuts the average AT share below "
                             "I-FAM and DeACT-W",
                    _fig11_deact_cuts_at)],
    "fig12": [
        Claim("fig12", "DeACT-N sits between I-FAM and E-FAM for the "
                       "outliers", _fig12_deact_recovers_outliers),
        Claim("fig12", "bc/lu/mg/sp see no DeACT gain",
              _fig12_no_gain_for_insensitive),
        Claim("fig12", "DeACT-N never trails DeACT-W",
              _fig12_n_beats_w),
    ],
    "fig13": [Claim("fig13", "speedup shrinks as the STU cache grows",
                    lambda f: _monotone_rows(f, increasing=False))],
    "fig15": [Claim("fig15", "speedup grows with fabric latency",
                    lambda f: _monotone_rows(f, increasing=True))],
    "fig16": [Claim("fig16", "speedup grows with node count",
                    lambda f: _monotone_rows(f, increasing=True))],
}


def check_figure(figure: FigureResult) -> List[ClaimOutcome]:
    """Evaluate every registered claim against ``figure``."""
    outcomes = []
    for claim in CLAIMS.get(figure.figure_id, []):
        try:
            passed = claim.check(figure)
            detail = ""
        except (KeyError, TypeError) as exc:
            passed = False
            detail = f"missing data: {exc}"
        outcomes.append(ClaimOutcome(claim=claim, passed=passed,
                                     detail=detail))
    return outcomes
