"""The premise of sharing one node-side pass across cells.

The four architectures and every sensitivity sweep of figs 3, 12, 13,
13a, 14, 14s and 15 differ only past the last-level cache: the STU,
the ACM, the FAM translator and its in-DRAM cache, the fabric and the
FAM.  The node side (the TLB, the node page walks, the data caches and
the OS frame placement) sees the same address sequence in every one of
those cells and reads no clock, so its counters must be equal across
them.  This suite pins that premise on plain ``FamSystem.run`` calls,
so a change that lets the memory side leak into the node side fails
here whether or not any stream is shared.
"""

import dataclasses

import pytest

from repro.config.presets import (
    default_config,
    with_acm_bits,
    with_acm_subways,
    with_fabric_latency,
    with_stu_associativity,
    with_stu_entries,
)
from repro.core.system import FamSystem
from repro.experiments.runner import RunSettings, build_traces

SETTINGS = RunSettings(n_events=1500, footprint_scale=0.02, seed=9)

#: Node-side counters in ``NodeMetrics.counters``.
NODE_COUNTERS = ("page_faults", "frames.local", "frames.fam", "mem.local",
                 "mem.fam", "mem.fam_data")


def _with_translation_cache(config, size_bytes):
    return config.replace(translation_cache=dataclasses.replace(
        config.translation_cache, size_bytes=size_bytes))


def _with_fam_latency(config, read_ns, write_ns):
    return config.replace(fam=dataclasses.replace(
        config.fam, read_ns=read_ns, write_ns=write_ns))


def _cells():
    """``(label, architecture, config)`` for every kind of variant the
    figure sweeps make, at both ends of each sweep."""
    base = default_config()
    cells = [(f"default/{arch}", arch, base)
             for arch in ("e-fam", "i-fam", "deact-w", "deact-n")]
    variants = {
        "stu-entries-256": with_stu_entries(base, 256),
        "stu-entries-4096": with_stu_entries(base, 4096),
        "stu-ways-4": with_stu_associativity(base, 4),
        "stu-ways-64": with_stu_associativity(base, 64),
        "acm-bits-8": with_acm_bits(base, 8),
        "acm-bits-32": with_acm_bits(base, 32),
        "acm-pairs-1": with_acm_subways(base, 1),
        "acm-pairs-3": with_acm_subways(base, 3),
        "tcache-256k": _with_translation_cache(base, 256 * 1024),
        "tcache-4m": _with_translation_cache(base, 4 * 1024 * 1024),
        "fabric-100ns": with_fabric_latency(base, 100.0),
        "fabric-6us": with_fabric_latency(base, 6000.0),
        "fam-slow": _with_fam_latency(base, 300.0, 900.0),
    }
    for label, config in variants.items():
        for arch in ("i-fam", "deact-w", "deact-n"):
            cells.append((f"{label}/{arch}", arch, config))
    return cells


def _node_side(system):
    """The node-side outcome of ``system``'s one node."""
    node = system.nodes[0]
    metrics = node.metrics()
    return {
        "instructions": metrics.instructions,
        "memory_accesses": metrics.memory_accesses,
        "llc_misses": metrics.llc_misses,
        "node_walks": metrics.node_walks,
        "tlb_hit_rate": metrics.tlb_hit_rate,
        "caches": [(c.hits, c.misses) for c in node.caches.levels],
        "tlb": [(t.hits, t.misses)
                for t in (node.mmu.tlb.l1, node.mmu.tlb.l2)],
        "walk_caches": [(c.hits, c.misses)
                        for c in node.mmu.walker._caches],
        "counters": {key: metrics.counters.get(key, 0.0)
                     for key in NODE_COUNTERS},
    }


@pytest.mark.parametrize("bench", ("canl", "mcf"))
def test_every_sweep_cell_shares_one_node_side(bench):
    traces = build_traces(bench, 1, SETTINGS)
    outcomes, runtimes = {}, set()
    for label, arch, config in _cells():
        system = FamSystem(config, arch, seed=SETTINGS.seed * 31 + 5)
        result = system.run(traces, benchmark=bench)
        outcomes[label] = _node_side(system)
        runtimes.add(result.nodes[0].runtime_ns)
    first = outcomes["default/e-fam"]
    assert first["counters"]["mem.fam"] > 0
    assert first["node_walks"] > 0
    differing = sorted(label for label, outcome in outcomes.items()
                       if outcome != first)
    assert differing == []
    # Not vacuous: the same cells do differ past the LLC.
    assert len(runtimes) > 10
