"""Whole-system property tests.

Hypothesis drives random workloads through complete systems and checks
invariants that must hold for *any* trace: conservation of accesses,
monotone time, translation correctness, and tenant isolation.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config.presets import small_config
from repro.core.system import FamSystem
from repro.workloads.trace import Trace


def trace_strategy(max_events=60, max_pages=64):
    """Random small traces over a bounded footprint."""
    event = st.tuples(
        st.integers(min_value=0, max_value=20),       # gap
        st.integers(min_value=0, max_value=max_pages - 1),  # page
        st.integers(min_value=0, max_value=63),       # block
        st.booleans(),                                 # write
        st.booleans(),                                 # dependent
    )
    def build(events):
        base = 0x2000_0000
        return Trace(
            "prop",
            gaps=[e[0] for e in events],
            vaddrs=[base + e[1] * 4096 + e[2] * 64 for e in events],
            writes=[e[3] for e in events],
            dependents=[e[4] and not e[3] for e in events],
        )
    return st.lists(event, min_size=1, max_size=max_events).map(build)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=trace_strategy(), arch=st.sampled_from(
    ["e-fam", "i-fam", "deact-w", "deact-n"]))
def test_run_invariants(trace, arch):
    """Every run, on every architecture, satisfies the basics."""
    system = FamSystem(small_config(), arch, seed=11)
    result = system.run(trace, benchmark="prop")
    node = result.nodes[0]

    # Conservation: every trace event became exactly one access.
    assert node.memory_accesses == len(trace)
    assert node.instructions == trace.instructions

    # Time sanity.
    assert node.runtime_ns >= 0.0
    assert node.cycles >= 0.0
    if node.cycles:
        assert 0.0 < node.ipc <= 16.0  # 4 cores x 2-wide x 2 GHz bound

    # Demand paging mapped exactly the touched pages (plus nothing).
    touched = {v // 4096 for v in trace.vaddrs}
    assert system.nodes[0].page_table.mapped_pages == len(touched)

    # Hit rates are rates.
    assert 0.0 <= node.tlb_hit_rate <= 1.0
    assert 0.0 <= node.translation_hit_rate <= 1.0
    assert 0.0 <= node.acm_hit_rate <= 1.0


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=trace_strategy(max_events=40))
def test_translation_consistency(trace):
    """DeACT's unverified cached translations always agree with the
    broker's authoritative system table."""
    system = FamSystem(small_config(), "deact-n", seed=11)
    system.run(trace, benchmark="prop")
    node = system.nodes[0]
    table = system.broker.system_table(0)
    cache = node.fam_translator.cache
    for node_page, fam_page in table.iter_mappings():
        cached = cache.lookup(node_page)
        if cached is not None:
            assert cached == fam_page


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace_a=trace_strategy(max_events=30),
       trace_b=trace_strategy(max_events=30))
def test_two_tenants_never_share_frames(trace_a, trace_b):
    """Isolation holds for arbitrary workload pairs."""
    from repro.config.presets import with_nodes
    system = FamSystem(with_nodes(small_config(), 2), "i-fam", seed=11)
    system.run([trace_a, trace_b], benchmark="prop")
    frames_a = {frame for _v, frame in
                system.broker.system_table(0).iter_mappings()}
    frames_b = {frame for _v, frame in
                system.broker.system_table(1).iter_mappings()}
    assert not frames_a & frames_b


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trace=trace_strategy(max_events=40))
def test_fam_census_consistent(trace):
    """The FAM's AT/non-AT split always sums to its total accesses."""
    system = FamSystem(small_config(), "deact-n", seed=11)
    result = system.run(trace, benchmark="prop")
    counters = result.fam_counters
    assert counters.get("at_accesses", 0) + \
        counters.get("non_at_accesses", 0) == counters.get("accesses", 0)
    total_by_kind = sum(value for key, value in counters.items()
                        if key.startswith("kind."))
    assert total_by_kind == counters.get("accesses", 0)
