"""Tests for traces, synthetic generators, and the benchmark catalog."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.workloads.catalog import (
    BENCHMARKS,
    SUITE_GROUPS,
    benchmark_names,
    get_profile,
)
from repro.workloads.synthetic import PatternSpec, generate_trace
from repro.workloads.trace import Trace, TraceEvent


class TestTrace:
    def test_iteration_yields_events(self):
        trace = Trace("t", [1, 2], [4096, 8192], [False, True],
                      [True, False])
        events = list(trace)
        assert events[0] == TraceEvent(1, 4096, False, True)
        assert events[1] == TraceEvent(2, 8192, True, False)

    def test_ragged_columns_rejected(self):
        with pytest.raises(TraceError):
            Trace("t", [1], [], [], [])

    def test_instructions_counts_gaps(self):
        trace = Trace("t", [3, 4], [0, 0], [False, False], [False, False])
        assert trace.instructions == 9  # 2 events + 7 gap

    def test_footprint_pages(self):
        trace = Trace("t", [0, 0, 0], [0, 4096, 4097],
                      [False] * 3, [False] * 3)
        assert trace.footprint_pages() == 2

    def test_slice(self):
        trace = Trace("t", [1, 2, 3], [0, 64, 128],
                      [False] * 3, [False] * 3)
        part = trace.slice(1, 3)
        assert len(part) == 2
        assert part[0].vaddr == 64


class TestGenerateTrace:
    def test_deterministic(self):
        spec = [PatternSpec("zipf", 1.0, {"alpha": 0.8})]
        a = generate_trace("t", 500, 100, spec, 5.0, 0.3, 0.5, seed=9)
        b = generate_trace("t", 500, 100, spec, 5.0, 0.3, 0.5, seed=9)
        assert a.vaddrs == b.vaddrs
        assert a.gaps == b.gaps

    def test_seed_changes_trace(self):
        spec = [PatternSpec("zipf", 1.0, {"alpha": 0.8})]
        a = generate_trace("t", 500, 100, spec, 5.0, 0.3, 0.5, seed=9)
        b = generate_trace("t", 500, 100, spec, 5.0, 0.3, 0.5, seed=10)
        assert a.vaddrs != b.vaddrs

    def test_footprint_respected(self):
        spec = [PatternSpec("zipf", 1.0, {"alpha": 0.5})]
        trace = generate_trace("t", 2000, 50, spec, 0.0, 0.0, 0.0, seed=1)
        assert trace.footprint_pages() <= 50

    def test_sequential_walks_blocks(self):
        spec = [PatternSpec("sequential", 1.0)]
        trace = generate_trace("t", 100, 10, spec, 0.0, 0.0, 0.0, seed=1)
        deltas = {b - a for a, b in zip(trace.vaddrs, trace.vaddrs[1:])}
        # Consecutive blocks except at the wrap point.
        assert deltas <= {64, 64 - 10 * 4096}

    def test_strided_pattern_stride(self):
        spec = [PatternSpec("strided", 1.0, {"stride_bytes": 1024})]
        trace = generate_trace("t", 50, 100, spec, 0.0, 0.0, 0.0, seed=1)
        deltas = {b - a for a, b in zip(trace.vaddrs, trace.vaddrs[1:])}
        assert 1024 in deltas

    def test_chase_events_always_dependent(self):
        spec = [PatternSpec("chase", 1.0)]
        trace = generate_trace("t", 200, 100, spec, 0.0, 0.0, 0.0, seed=1)
        # Chase loads are dependent unless they are stores (none here).
        assert all(trace.dependents)

    def test_writes_never_dependent(self):
        spec = [PatternSpec("zipf", 1.0, {"alpha": 0.5})]
        trace = generate_trace("t", 500, 100, spec, 0.0, 0.9, 0.9, seed=1)
        for event in trace:
            if event.is_write:
                assert not event.dependent

    def test_write_fraction_approx(self):
        spec = [PatternSpec("zipf", 1.0, {"alpha": 0.5})]
        trace = generate_trace("t", 4000, 100, spec, 0.0, 0.3, 0.0, seed=1)
        share = sum(trace.writes) / len(trace)
        assert 0.2 < share < 0.4

    def test_gap_mean_approx(self):
        spec = [PatternSpec("zipf", 1.0, {"alpha": 0.5})]
        trace = generate_trace("t", 4000, 100, spec, 10.0, 0.0, 0.0, seed=1)
        mean = sum(trace.gaps) / len(trace)
        assert 8.0 < mean < 12.0

    def test_reuse_concentrates_pages(self):
        spec = [PatternSpec("zipf", 1.0, {"alpha": 0.2})]
        low = generate_trace("t", 3000, 3000, spec, 0.0, 0.0, 0.0,
                             seed=1, reuse_fraction=0.0)
        high = generate_trace("t", 3000, 3000, spec, 0.0, 0.0, 0.0,
                              seed=1, reuse_fraction=0.9, reuse_window=64)
        assert high.footprint_pages() < low.footprint_pages()

    def test_hotcold_concentrates(self):
        spec = [PatternSpec("hotcold", 1.0,
                            {"hot_fraction": 0.95, "hot_pages": 4})]
        trace = generate_trace("t", 2000, 1000, spec, 0.0, 0.0, 0.0, seed=1)
        from collections import Counter
        pages = Counter(v // 4096 for v in trace.vaddrs)
        top4 = sum(count for _page, count in pages.most_common(4))
        assert top4 / len(trace) > 0.8

    def test_validation_errors(self):
        spec = [PatternSpec("zipf", 1.0)]
        with pytest.raises(TraceError):
            generate_trace("t", 0, 10, spec, 0.0, 0.0, 0.0)
        with pytest.raises(TraceError):
            generate_trace("t", 10, 0, spec, 0.0, 0.0, 0.0)
        with pytest.raises(TraceError):
            generate_trace("t", 10, 10, [], 0.0, 0.0, 0.0)
        with pytest.raises(TraceError):
            PatternSpec("mystery", 1.0)
        with pytest.raises(TraceError):
            PatternSpec("zipf", 0.0)

    @given(st.integers(min_value=1, max_value=2000),
           st.integers(min_value=1, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_addresses_inside_heap_region(self, n_events, footprint):
        spec = [PatternSpec("zipf", 0.5, {"alpha": 0.7}),
                PatternSpec("sequential", 0.5)]
        trace = generate_trace("t", n_events, footprint, spec,
                               3.0, 0.2, 0.3, seed=5)
        base = 0x1000_0000
        limit = base + footprint * 4096
        assert all(base <= addr < limit for addr in trace.vaddrs)


class TestCatalog:
    def test_fourteen_paper_benchmarks(self):
        # Exactly the paper's figure x-axis: no non-paper workload may
        # land on a figure mean.
        assert benchmark_names() == ["mcf", "cactus", "astar", "frqm",
                                     "canl", "bc", "cc", "ccsv", "sssp",
                                     "pf", "dc", "lu", "mg", "sp"]

    def test_figure_order(self):
        assert benchmark_names()[:5] == ["mcf", "cactus", "astar",
                                         "frqm", "canl"]

    def test_table_iii_mpki_values(self):
        """Spot-check published MPKI numbers from Table III."""
        assert get_profile("mcf").paper_mpki == 73
        assert get_profile("sssp").paper_mpki == 144
        assert get_profile("bc").paper_mpki == 113
        assert get_profile("dc").paper_mpki == 49
        assert get_profile("lu").paper_mpki is None  # not in Table III

    def test_suites(self):
        assert get_profile("mcf").suite == "SPEC 2006"
        assert get_profile("canl").suite == "PARSEC"
        assert get_profile("sssp").suite == "Intel GAP"
        assert get_profile("pf").suite == "Mantevo"
        assert get_profile("mg").suite == "NAS"

    def test_unknown_benchmark_raises(self):
        with pytest.raises(TraceError):
            get_profile("doom")

    def test_build_trace_deterministic(self):
        profile = get_profile("mcf")
        a = profile.build_trace(500, seed=3, footprint_scale=0.05)
        b = profile.build_trace(500, seed=3, footprint_scale=0.05)
        assert a.vaddrs == b.vaddrs

    def test_benchmarks_have_distinct_traces(self):
        a = get_profile("mcf").build_trace(200, seed=3, footprint_scale=0.05)
        b = get_profile("canl").build_trace(200, seed=3, footprint_scale=0.05)
        assert a.vaddrs != b.vaddrs

    def test_footprint_scale(self):
        profile = get_profile("mcf")
        full = profile.footprint_pages
        trace = profile.build_trace(5000, seed=1, footprint_scale=0.01)
        assert trace.footprint_pages() <= max(64, int(full * 0.01))

    def test_suite_groups_cover_sensitivity_benchmarks(self):
        members = [m for group in SUITE_GROUPS.values() for m in group]
        for bench in ("mcf", "canl", "sssp", "pf", "dc"):
            assert bench in members

    def test_paper_slowdowns_recorded_for_outliers(self):
        assert get_profile("sssp").paper_ifam_slowdown == 20.6
        assert get_profile("canl").paper_ifam_slowdown == 18.7
        assert get_profile("cactus").paper_ifam_slowdown == 11.6
        assert get_profile("ccsv").paper_ifam_slowdown == 9.1
