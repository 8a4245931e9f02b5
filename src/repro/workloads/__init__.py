"""Workload traces and the paper's benchmark catalog.

The paper traces SPEC 2006, PARSEC, GAP, Mantevo and NAS binaries in
SST; we substitute seeded synthetic generators whose locality knobs
(footprint, page-access skew, stride, pointer-chasing fraction)
reproduce each benchmark's *translation sensitivity* — the property all
the figures hinge on.

* :mod:`repro.workloads.trace` — the trace container and event type.
* :mod:`repro.workloads.synthetic` — vectorized pattern generators
  (sequential, strided, zipf, pointer-chase, hot/cold).
* :mod:`repro.workloads.catalog` — Table III: the 14 benchmarks with
  their published MPKI and our locality profiles.
"""

from repro.workloads.catalog import (
    BENCHMARKS,
    BenchmarkProfile,
    benchmark_names,
    get_profile,
)
from repro.workloads.synthetic import PatternSpec, generate_trace
from repro.workloads.trace import Trace, TraceEvent

__all__ = [
    "Trace",
    "TraceEvent",
    "PatternSpec",
    "generate_trace",
    "BenchmarkProfile",
    "BENCHMARKS",
    "benchmark_names",
    "get_profile",
]
