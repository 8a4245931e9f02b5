"""Named configurations for the paper's experiments.

``default_config`` is Table II verbatim; the ``with_*`` helpers derive
the sensitivity-sweep variants (Figures 13-16) from any base
configuration without mutating it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.system import FabricConfig, StuConfig, SystemConfig

__all__ = [
    "default_config",
    "small_config",
    "with_stu_entries",
    "with_stu_associativity",
    "with_acm_bits",
    "with_acm_subways",
    "with_fabric_latency",
    "with_nodes",
    "with_allocation_policy",
]


def default_config(nodes: int = 1) -> SystemConfig:
    """The paper's Table II system configuration."""
    return SystemConfig(nodes=nodes)


def small_config(nodes: int = 1) -> SystemConfig:
    """A scaled-down configuration for fast unit tests.

    Shrinks every cache/TLB so interesting miss behaviour appears within
    a few thousand trace events instead of millions.  Relative
    proportions between structures follow Table II.
    """
    from repro.config.system import CacheConfig, KIB, TlbConfig, \
        TranslationCacheConfig
    base = SystemConfig(
        nodes=nodes,
        l1=CacheConfig("L1", 4 * KIB, associativity=4, latency_ns=2.0),
        l2=CacheConfig("L2", 16 * KIB, associativity=4, latency_ns=6.0),
        l3=CacheConfig("L3", 64 * KIB, associativity=8, latency_ns=20.0),
        tlb=TlbConfig(l1_entries=8, l2_entries=32,
                      l1_associativity=4, l2_associativity=8),
        stu=StuConfig(entries=64, associativity=8),
        translation_cache=TranslationCacheConfig(size_bytes=16 * KIB),
    )
    return base


def with_stu_entries(config: SystemConfig, entries: int) -> SystemConfig:
    """Figure 13: vary STU cache size (256..4096 entries)."""
    stu = replace(config.stu, entries=entries)
    return config.replace(stu=stu)


def with_stu_associativity(config: SystemConfig, associativity: int) -> SystemConfig:
    """Section V-D.1 (text): vary STU associativity (4..64)."""
    stu = replace(config.stu, associativity=associativity)
    return config.replace(stu=stu)


def with_acm_bits(config: SystemConfig, acm_bits: int) -> SystemConfig:
    """Figure 14: vary access-control-metadata width (8/16/32 bits)."""
    stu = replace(config.stu, acm_bits=acm_bits)
    return config.replace(stu=stu)


def with_acm_subways(config: SystemConfig, subways: int) -> SystemConfig:
    """Figure 14 (DeACT-N pairs-per-way study): 1..3 {tag, ACM} pairs."""
    stu = replace(config.stu, subways_per_way=subways)
    return config.replace(stu=stu)


def with_fabric_latency(config: SystemConfig, total_ns: float) -> SystemConfig:
    """Figure 15: vary one-way fabric latency (100 ns .. 6 us)."""
    fabric = FabricConfig.with_total_latency(
        total_ns, port_occupancy_ns=config.fabric.port_occupancy_ns)
    return config.replace(fabric=fabric)


def with_nodes(config: SystemConfig, nodes: int) -> SystemConfig:
    """Figure 16: vary the number of nodes sharing fabric and FAM."""
    return config.replace(nodes=nodes)


def with_allocation_policy(config: SystemConfig, policy: str) -> SystemConfig:
    """Ablation: contiguous vs random FAM frame placement."""
    allocation = replace(config.allocation, fam_policy=policy)
    return config.replace(allocation=allocation)
