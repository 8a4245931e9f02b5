"""Table III: the benchmark catalog.

Each entry pairs the paper's published properties (suite, MPKI, and
where derivable from the text, the I-FAM slowdown) with the synthetic
locality profile that reproduces its translation behaviour:

* **footprint** — paper average is 309 MB per application; 20 % is
  served from local DRAM, 80 % from FAM (footnote 3).
* **pattern mixture** — positions the benchmark on the
  cache-friendly <-> TLB/STU-hostile axis.  Graph kernels with
  power-law reuse (``bc``) keep their hot pages inside the 1024-entry
  STU; near-uniform page accesses (``canl``, ``sssp``, ``ccsv``)
  thrash it — those are the paper's outliers.
* **gap_mean** — non-memory instructions between memory events,
  steering measured MPKI toward Table III's values.
* **dependent_fraction** — how much of the miss latency the core can
  hide (pointer chasing cannot be overlapped).

``lu`` appears in the paper's figures without a Table III row; its
profile is inferred from its behaviour (insensitive to indirection,
like ``mg``/``sp``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TraceError
from repro.workloads.synthetic import PatternSpec, generate_trace
from repro.workloads.trace import Trace

__all__ = ["BenchmarkProfile", "BENCHMARKS", "SUITE_GROUPS",
           "benchmark_names", "get_profile"]

_MB = 1024 * 1024
_PAGE = 4096


@dataclass(frozen=True)
class BenchmarkProfile:
    """One Table III benchmark plus its synthetic locality profile."""

    name: str
    suite: str
    paper_mpki: Optional[int]
    footprint_mb: int
    patterns: Tuple[PatternSpec, ...]
    gap_mean: float
    write_fraction: float
    dependent_fraction: float
    #: Temporal-clustering knobs (see
    #: :func:`repro.workloads.synthetic.generate_trace`): how often the
    #: workload revisits a recently touched page, and how far back.
    reuse_fraction: float = 0.5
    reuse_window: int = 1024
    #: I-FAM slowdown wrt E-FAM stated or derivable from the paper's
    #: text/Figure 3 (None when the figure bar is unlabeled).
    paper_ifam_slowdown: Optional[float] = None
    description: str = ""

    @property
    def footprint_pages(self) -> int:
        return (self.footprint_mb * _MB) // _PAGE

    def build_trace(self, n_events: int, seed: int = 0,
                    footprint_scale: float = 1.0) -> Trace:
        """Materialize a deterministic trace for this benchmark.

        ``footprint_scale`` shrinks the touched region proportionally;
        the experiment harness uses it to trade trace length for warm
        reuse (the paper runs 100M-instruction windows we cannot afford
        per configuration — see
        :class:`repro.experiments.runner.RunSettings` for the scaling
        note).
        """
        if footprint_scale <= 0:
            raise TraceError("footprint scale must be positive")
        pages = max(64, int(self.footprint_pages * footprint_scale))
        return generate_trace(
            name=self.name, n_events=n_events,
            footprint_pages=pages,
            patterns=self.patterns, gap_mean=self.gap_mean,
            write_fraction=self.write_fraction,
            dependent_fraction=self.dependent_fraction,
            seed=seed ^ _stable_hash(self.name),
            reuse_fraction=self.reuse_fraction,
            reuse_window=self.reuse_window)


def _stable_hash(text: str) -> int:
    """A seed component that does not depend on PYTHONHASHSEED."""
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) & 0x7FFFFFFF
    return value


def _zipf(weight: float, alpha: float) -> PatternSpec:
    return PatternSpec("zipf", weight, {"alpha": alpha})


def _seq(weight: float) -> PatternSpec:
    return PatternSpec("sequential", weight)


def _strided(weight: float, stride_bytes: int) -> PatternSpec:
    return PatternSpec("strided", weight, {"stride_bytes": stride_bytes})


def _chase(weight: float) -> PatternSpec:
    return PatternSpec("chase", weight)


def _hotcold(weight: float, hot_fraction: float,
             hot_pages: int) -> PatternSpec:
    return PatternSpec("hotcold", weight, {"hot_fraction": hot_fraction,
                                           "hot_pages": hot_pages})


BENCHMARKS: Dict[str, BenchmarkProfile] = {
    profile.name: profile for profile in [
        # ----------------------------------------------------- SPEC 2006
        BenchmarkProfile(
            name="mcf", suite="SPEC 2006", paper_mpki=73,
            footprint_mb=280, gap_mean=5.0,
            patterns=(_zipf(0.65, 0.85), _chase(0.2), _seq(0.15)),
            write_fraction=0.25, dependent_fraction=0.5,
            paper_ifam_slowdown=2.56,
            reuse_fraction=0.82, reuse_window=3600,
            description="Pointer-heavy network simplex; moderate skew."),
        BenchmarkProfile(
            name="cactus", suite="SPEC 2006", paper_mpki=60,
            footprint_mb=360, gap_mean=7.0,
            patterns=(_strided(0.8, 1024), _zipf(0.2, 0.6)),
            write_fraction=0.3, dependent_fraction=0.5,
            paper_ifam_slowdown=11.6,
            reuse_fraction=0.4, reuse_window=512,
            description="Stencil streaming a huge grid: few accesses "
                        "per page, so translation dominates in I-FAM."),
        BenchmarkProfile(
            name="astar", suite="SPEC 2006", paper_mpki=9,
            footprint_mb=150, gap_mean=45.0,
            patterns=(_hotcold(0.8, 0.95, 2000), _zipf(0.2, 1.1)),
            write_fraction=0.2, dependent_fraction=0.5,
            reuse_fraction=0.96, reuse_window=1400,
            description="Path search over a mostly-resident graph."),
        # -------------------------------------------------------- PARSEC
        BenchmarkProfile(
            name="frqm", suite="PARSEC", paper_mpki=16,
            footprint_mb=200, gap_mean=28.0,
            patterns=(_zipf(0.85, 1.05), _seq(0.15)),
            write_fraction=0.3, dependent_fraction=0.4,
            reuse_fraction=0.96, reuse_window=1600,
            description="Freqmine: FP-tree mining with skewed reuse."),
        BenchmarkProfile(
            name="canl", suite="PARSEC", paper_mpki=57,
            footprint_mb=280, gap_mean=7.0,
            patterns=(_zipf(0.9, 0.5), _seq(0.1)),
            write_fraction=0.3, dependent_fraction=0.65,
            paper_ifam_slowdown=18.7,
            reuse_fraction=0.85, reuse_window=5000,
            description="Canneal: near-uniform random element swaps — "
                        "the paper's lowest STU hit rate (46.44%)."),
        # ----------------------------------------------------- Intel GAP
        BenchmarkProfile(
            name="bc", suite="Intel GAP", paper_mpki=113,
            footprint_mb=250, gap_mean=3.5,
            patterns=(_zipf(0.85, 1.3), _chase(0.15)),
            write_fraction=0.2, dependent_fraction=0.5,
            reuse_fraction=0.96, reuse_window=1100,
            description="Betweenness centrality: power-law hub reuse "
                        "keeps the STU effective; DeACT gains little."),
        BenchmarkProfile(
            name="cc", suite="Intel GAP", paper_mpki=56,
            footprint_mb=250, gap_mean=13.0,
            patterns=(_zipf(0.8, 1.0), _seq(0.2)),
            write_fraction=0.2, dependent_fraction=0.45,
            reuse_fraction=0.95, reuse_window=1500,
            description="Connected components (Afforest sampling)."),
        BenchmarkProfile(
            name="ccsv", suite="Intel GAP", paper_mpki=130,
            footprint_mb=300, gap_mean=4.5,
            patterns=(_zipf(0.8, 0.55), _chase(0.2)),
            write_fraction=0.25, dependent_fraction=0.65,
            paper_ifam_slowdown=9.1,
            reuse_fraction=0.86, reuse_window=4200,
            description="Connected components (Shiloach-Vishkin): "
                        "label propagation over nearly uniform pages."),
        BenchmarkProfile(
            name="sssp", suite="Intel GAP", paper_mpki=144,
            footprint_mb=320, gap_mean=4.0,
            patterns=(_zipf(0.7, 0.5), _chase(0.3)),
            write_fraction=0.25, dependent_fraction=0.7,
            paper_ifam_slowdown=20.6,
            reuse_fraction=0.84, reuse_window=4800,
            description="Single-source shortest paths: the paper's "
                        "worst case — uniform pages + dependent loads."),
        # ------------------------------------------------------- Mantevo
        BenchmarkProfile(
            name="pf", suite="Mantevo", paper_mpki=41,
            footprint_mb=180, gap_mean=16.0,
            patterns=(_strided(0.5, 4096), _zipf(0.5, 0.9)),
            write_fraction=0.3, dependent_fraction=0.4,
            reuse_fraction=0.9, reuse_window=2200,
            description="PathFinder: page-strided sweeps (one access "
                        "per page) mixed with skewed lookups."),
        # ----------------------------------------------------------- NAS
        BenchmarkProfile(
            name="dc", suite="NAS", paper_mpki=49,
            footprint_mb=260, gap_mean=13.0,
            patterns=(_zipf(0.75, 0.65), _strided(0.25, 2048)),
            write_fraction=0.35, dependent_fraction=0.55,
            reuse_fraction=0.88, reuse_window=3200,
            description="Data Cube: the NPB benchmark the paper keeps "
                        "for sensitivity studies (I-FAM-sensitive)."),
        BenchmarkProfile(
            name="lu", suite="NAS", paper_mpki=None,
            footprint_mb=200, gap_mean=6.0,
            patterns=(_seq(0.7), _zipf(0.3, 1.2)),
            write_fraction=0.35, dependent_fraction=0.3,
            reuse_fraction=0.97, reuse_window=900,
            description="LU factorization: blocked sweeps, dense "
                        "reuse — insensitive to indirection."),
        BenchmarkProfile(
            name="mg", suite="NAS", paper_mpki=99,
            footprint_mb=220, gap_mean=8.0,
            patterns=(_seq(0.75), _strided(0.25, 128)),
            write_fraction=0.35, dependent_fraction=0.3,
            reuse_fraction=0.9, reuse_window=500,
            description="Multigrid: sequential grid sweeps."),
        BenchmarkProfile(
            name="sp", suite="NAS", paper_mpki=141,
            footprint_mb=230, gap_mean=5.0,
            patterns=(_seq(0.8), _strided(0.2, 256)),
            write_fraction=0.35, dependent_fraction=0.25,
            reuse_fraction=0.9, reuse_window=500,
            description="Scalar penta-diagonal solver: streaming."),
    ]
}

#: Figure x-axis order used throughout the paper.
_FIGURE_ORDER = ["mcf", "cactus", "astar", "frqm", "canl", "bc", "cc",
                 "ccsv", "sssp", "pf", "dc", "lu", "mg", "sp"]

#: Suite groupings used by the sensitivity figures (13-15), which plot
#: geomeans of SPEC / PARSEC / GAP plus pf and dc individually.
SUITE_GROUPS: Dict[str, List[str]] = {
    "SPEC": ["mcf", "cactus", "astar"],
    "PARSEC": ["frqm", "canl"],
    "GAP": ["bc", "cc", "ccsv", "sssp"],
    "pf": ["pf"],
    "dc": ["dc"],
}


def benchmark_names() -> List[str]:
    """All benchmarks in the paper's figure order."""
    return list(_FIGURE_ORDER)


def get_profile(name: str) -> BenchmarkProfile:
    """Fetch a profile by name.

    Raises
    ------
    TraceError
        For unknown names, listing the valid ones.
    """
    profile = BENCHMARKS.get(name)
    if profile is None:
        raise TraceError(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(_FIGURE_ORDER)}")
    return profile
