"""Configuration dataclasses for every simulated hardware block.

All sizes are bytes, all latencies nanoseconds, all counts plain ints.
Each dataclass validates itself in ``__post_init__`` so a bad sweep
parameter fails before any simulation time is spent
(:class:`~repro.errors.ConfigError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import ConfigError

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "TlbConfig",
    "PtwConfig",
    "LocalMemoryConfig",
    "FamConfig",
    "FabricConfig",
    "StuConfig",
    "TranslationCacheConfig",
    "AllocationConfig",
    "SystemConfig",
    "KIB",
    "MIB",
    "GIB",
    "PAGE_BYTES",
    "BLOCK_BYTES",
]

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Base page size assumed throughout the paper (4 KB).
PAGE_BYTES = 4096
#: Memory access granularity (cache block) assumed throughout (64 B).
BLOCK_BYTES = 64


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """One level of the on-chip data cache hierarchy (LRU replacement,
    Table II)."""

    name: str
    size_bytes: int  # byte
    associativity: int
    latency_ns: float  # ns
    block_bytes: int = BLOCK_BYTES  # byte

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, f"{self.name}: size must be positive")
        _require(_power_of_two(self.block_bytes),
                 f"{self.name}: block size must be a power of two")
        _require(self.associativity > 0,
                 f"{self.name}: associativity must be positive")
        _require(self.latency_ns >= 0, f"{self.name}: negative latency")
        _require(self.size_bytes % (self.block_bytes * self.associativity) == 0,
                 f"{self.name}: size not divisible into "
                 f"{self.associativity}-way sets of {self.block_bytes}B blocks")

    @property
    def n_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        return self.n_blocks // self.associativity


@dataclass(frozen=True)
class CoreConfig:
    """The node's processing element (Table II: 4 OoO cores, 2 GHz,
    2 issues/cycle, 32 max outstanding requests).

    The simulator models one aggregate access stream per node; the core
    count scales the non-memory instruction throughput.
    """

    cores: int = 4
    frequency_ghz: float = 2.0  # GHz
    issue_width: int = 2
    max_outstanding: int = 32

    def __post_init__(self) -> None:
        _require(self.cores > 0, "core count must be positive")
        _require(self.frequency_ghz > 0, "frequency must be positive")
        _require(self.issue_width > 0, "issue width must be positive")
        _require(self.max_outstanding > 0, "outstanding limit must be positive")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class TlbConfig:
    """Two-level TLB over 4 KB pages (Table II: L1 32 entries, L2 256
    entries)."""

    l1_entries: int = 32  # entries
    l2_entries: int = 256  # entries
    l1_associativity: int = 4
    l2_associativity: int = 8
    l2_latency_ns: float = 3.5  # ns (7 cycles at 2 GHz, Haswell-like)

    def __post_init__(self) -> None:
        _require(self.l1_entries > 0 and self.l2_entries > 0,
                 "TLB levels need at least one entry")
        _require(self.l1_associativity > 0 and self.l2_associativity > 0,
                 "TLB associativity must be positive")
        _require(self.l1_entries % self.l1_associativity == 0,
                 "L1 TLB entries must divide into ways")
        _require(self.l2_entries % self.l2_associativity == 0,
                 "L2 TLB entries must divide into ways")


@dataclass(frozen=True)
class PtwConfig:
    """Page-table-walker caches for intermediate levels (32 entries,
    after Bhargava et al. [8] as configured in the paper)."""

    cache_entries: int = 32  # entries
    lookup_ns: float = 0.5  # ns (one cycle)

    def __post_init__(self) -> None:
        _require(self.cache_entries >= 0, "PTW cache entries cannot be negative")
        _require(self.lookup_ns >= 0, "negative PTW lookup latency")


@dataclass(frozen=True)
class LocalMemoryConfig:
    """Node-local DRAM (Table II: 1 GB), banks interleaved per 64 B
    block."""

    size_bytes: int = 1 * GIB  # byte
    access_ns: float = 50.0  # ns
    banks: int = 8

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "local memory size must be positive")
        _require(self.access_ns >= 0, "negative DRAM latency")
        _require(self.banks > 0, "DRAM bank count must be positive")


@dataclass(frozen=True)
class FamConfig:
    """Fabric-attached memory (Table II: 16 GB NVM, 60/150 ns read/write,
    32 banks interleaved per 64 B block, 128 outstanding requests)."""

    capacity_bytes: int = 16 * GIB  # byte
    read_ns: float = 60.0  # ns
    write_ns: float = 150.0  # ns
    banks: int = 32
    max_outstanding: int = 128

    def __post_init__(self) -> None:
        _require(self.capacity_bytes > 0, "FAM capacity must be positive")
        _require(self.read_ns >= 0 and self.write_ns >= 0, "negative FAM latency")
        _require(self.banks > 0, "FAM bank count must be positive")
        _require(self.max_outstanding > 0, "FAM outstanding limit must be positive")


@dataclass(frozen=True)
class FabricConfig:
    """The system interconnect (Table II: 500 ns network latency).

    The one-way node-to-FAM latency is split into a short node-to-router
    hop (the STU sits in the first router, Section III-A) and a longer
    router-to-FAM hop.  ``port_occupancy_ns`` is the serialization time a
    message occupies the shared FAM-side port, which is what creates
    contention when several nodes share the fabric (Figure 16).
    """

    node_to_stu_ns: float = 100.0  # ns
    stu_to_fam_ns: float = 400.0  # ns
    port_occupancy_ns: float = 20.0  # ns

    def __post_init__(self) -> None:
        _require(self.node_to_stu_ns >= 0, "negative node-to-STU latency")
        _require(self.stu_to_fam_ns >= 0, "negative STU-to-FAM latency")
        _require(self.port_occupancy_ns >= 0, "negative port occupancy")

    @property
    def total_latency_ns(self) -> float:
        """One-way node-to-FAM latency (the paper's headline number)."""
        return self.node_to_stu_ns + self.stu_to_fam_ns

    @classmethod
    def with_total_latency(cls, total_ns: float,
                           port_occupancy_ns: float = 20.0) -> "FabricConfig":
        """Build a fabric whose one-way latency is ``total_ns``, keeping
        the paper's 1:4 split between the node-router and router-FAM hops."""
        _require(total_ns >= 0, "negative fabric latency")
        return cls(node_to_stu_ns=total_ns * 0.2,
                   stu_to_fam_ns=total_ns * 0.8,
                   port_occupancy_ns=port_occupancy_ns)


@dataclass(frozen=True)
class StuConfig:
    """System Translation Unit (Table II: 1024 entries, 128 sets,
    8-way; modelled after a Haswell Xeon L2 TLB)."""

    entries: int = 1024  # entries
    associativity: int = 8
    lookup_ns: float = 2.0  # ns
    acm_bits: int = 16  # bit
    #: Section III-A aside: with per-node memory encryption keys,
    #: read verification can be skipped entirely — stolen ciphertext is
    #: useless without the key, and writes are still vetted.  Off by
    #: default (the paper leaves it as future work).
    encrypted_memory_mode: bool = False
    #: Walk-cache entries for the STU's FAM page-table walker.  The
    #: default of 0 makes every system-table walk cost the full four
    #: serial FAM reads, matching the paper's accounting ("considering
    #: four memory accesses during PTW", Section III-B); the node MMU
    #: keeps the paper's 32-entry Bhargava-style caches (PtwConfig).
    walk_cache_entries: int = 0  # entries
    #: DeACT-N only: how many {tag, ACM} sub-way pairs fit per physical
    #: way.  The paper's default is 2 with 44-bit tags; the Figure 14
    #: ablation explores 1 and 3.
    subways_per_way: int = 2

    def __post_init__(self) -> None:
        _require(self.entries > 0, "STU entries must be positive")
        _require(self.associativity > 0, "STU associativity must be positive")
        _require(self.entries % self.associativity == 0,
                 "STU entries must divide into ways")
        _require(self.acm_bits in (8, 16, 32),
                 f"ACM width must be 8, 16 or 32 bits, got {self.acm_bits}")
        _require(self.subways_per_way in (1, 2, 3),
                 "DeACT-N supports 1..3 sub-way pairs per way")
        _require(self.lookup_ns >= 0, "negative STU lookup latency")
        _require(self.walk_cache_entries >= 0,
                 "STU walk-cache entries cannot be negative")

    @property
    def n_sets(self) -> int:
        return self.entries // self.associativity

    @property
    def contiguous_pages_per_way(self) -> int:
        """DeACT-W: pages whose ACM shares one way (52 bits freed by
        dropping the FAM page address, Section III-D / Figure 14)."""
        return max(1, 52 // self.acm_bits)


@dataclass(frozen=True)
class TranslationCacheConfig:
    """The in-DRAM FAM translation cache (Section III-C; 1 MB, 4-way,
    four 104-bit entries per 64-byte row, random replacement)."""

    size_bytes: int = 1 * MIB  # byte
    associativity: int = 4
    entry_bytes: int = 16  # byte (104 bits padded so 4 fit a 64 B row)

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "translation cache size must be positive")
        _require(self.associativity > 0, "associativity must be positive")
        _require(self.entry_bytes > 0, "entry size must be positive")
        _require(self.size_bytes % (self.entry_bytes * self.associativity) == 0,
                 "translation cache size must divide into sets")

    @property
    def n_entries(self) -> int:
        return self.size_bytes // self.entry_bytes

    @property
    def n_sets(self) -> int:
        return self.n_entries // self.associativity


@dataclass(frozen=True)
class AllocationConfig:
    """Memory placement policy (paper footnote 3: ~20 % of application
    memory from local DRAM, ~80 % from FAM; FAM frames are handed out
    randomly because the pool is shared by many nodes)."""

    local_fraction: float = 0.2
    fam_policy: str = "random"
    seed: int = 0xDEAC7

    def __post_init__(self) -> None:
        _require(0.0 <= self.local_fraction <= 1.0,
                 "local fraction must be within [0, 1]")
        _require(self.fam_policy in ("random", "contiguous"),
                 f"unknown FAM allocation policy {self.fam_policy!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Complete system: Table II defaults unless overridden."""

    nodes: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1", 32 * KIB, associativity=8, latency_ns=2.0))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L2", 256 * KIB, associativity=8, latency_ns=6.0))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L3", 1 * MIB, associativity=16, latency_ns=20.0))
    tlb: TlbConfig = field(default_factory=TlbConfig)
    ptw: PtwConfig = field(default_factory=PtwConfig)
    local_memory: LocalMemoryConfig = field(default_factory=LocalMemoryConfig)
    fam: FamConfig = field(default_factory=FamConfig)
    fabric: FabricConfig = field(default_factory=FabricConfig)
    stu: StuConfig = field(default_factory=StuConfig)
    translation_cache: TranslationCacheConfig = field(
        default_factory=TranslationCacheConfig)
    allocation: AllocationConfig = field(default_factory=AllocationConfig)

    def __post_init__(self) -> None:
        _require(self.nodes > 0, "need at least one node")
        _require(self.l1.block_bytes == self.l2.block_bytes == self.l3.block_bytes,
                 "cache hierarchy must share one block size")

    @property
    def page_bytes(self) -> int:
        return PAGE_BYTES

    @property
    def block_bytes(self) -> int:
        return self.l1.block_bytes

    def replace(self, **changes: object) -> "SystemConfig":
        """A copy of this configuration with top-level fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def describe(self) -> Dict[str, str]:
        """A flat human-readable summary (used by Table II harness)."""
        return {
            "CPU": (f"{self.core.cores} OoO cores, {self.core.frequency_ghz:g}GHz, "
                    f"{self.core.issue_width} issues/cycle, "
                    f"{self.core.max_outstanding} max outstanding requests"),
            "TLB": (f"2 levels, L1 size: {self.tlb.l1_entries} entries, "
                    f"L2 size: {self.tlb.l2_entries} entries"),
            "L1": f"Private, {self.l1.block_bytes}B blocks, {self.l1.size_bytes // KIB}KB, LRU",
            "L2": f"Private, {self.l2.block_bytes}B blocks, {self.l2.size_bytes // KIB}KB, LRU",
            "L3": f"Shared, {self.l3.block_bytes}B blocks, {self.l3.size_bytes // MIB}MB, LRU",
            "Local memory": f"DRAM, Size: {self.local_memory.size_bytes // GIB}GB",
            "STU cache": (f"Size: {self.stu.entries} entries, "
                          f"associativity: {self.stu.associativity}"),
            "Fabric latency": f"{self.fabric.total_latency_ns:g}ns",
            "FAM": (f"NVM, {self.fam.capacity_bytes // GIB}GB, read "
                    f"{self.fam.read_ns:g}ns, write {self.fam.write_ns:g}ns, "
                    f"{self.fam.banks} banks, "
                    f"{self.fam.max_outstanding} outstanding requests"),
            "Nodes": str(self.nodes),
        }
