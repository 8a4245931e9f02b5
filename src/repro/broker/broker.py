"""The memory broker: system-level owner of the FAM pool.

The broker is the trusted entity of the threat model.  It

* grants FAM frames to nodes on demand (first touch of a FAM-zone node
  physical page),
* maintains one **system page table per node** — a four-level table
  mapping node page numbers to FAM frames, whose table pages themselves
  occupy FAM frames (so STU walks generate real FAM traffic),
* writes the access-control metadata the STU verifies against,
* builds shared segments (1 GB-granularity sharing with per-node
  permission classes via the region bitmaps), and
* migrates jobs between nodes (Section VI), reporting the shootdown
  work the paper enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.acm.layout import FamLayout
from repro.acm.metadata import PERM_RW
from repro.acm.store import AcmStore
from repro.broker.allocator import FrameAllocator
from repro.broker.registry import NodeRegistry
from repro.config.system import AllocationConfig, FamConfig, PAGE_BYTES
from repro.errors import ConfigError, TranslationFault
from repro.pagetable.x86 import FourLevelPageTable
from repro.sim.stats import Stats

__all__ = ["MemoryBroker", "SharedSegment", "MigrationReport"]


@dataclass(frozen=True)
class SharedSegment:
    """A broker-built shared memory segment.

    ``fam_pages`` are the (physically contiguous) FAM page numbers;
    ``regions`` the 1 GB regions whose bitmaps hold the grants.
    """

    fam_pages: tuple
    regions: tuple
    grants: tuple  # (node_id, perm_code) pairs


@dataclass
class MigrationReport:
    """Work performed by a job migration (the Section VI overhead).

    Every field is a count of metadata updates that would hit memory:
    the paper's "overhead of system-level mapping shootdown".
    """

    pages_moved: int = 0
    acm_writes: int = 0
    table_updates: int = 0
    stu_invalidations: int = 0
    translation_cache_invalidations: int = 0


class MemoryBroker:
    """Centralized FAM manager (the Opal role in the paper's setup)."""

    def __init__(self, fam_config: FamConfig,
                 allocation: AllocationConfig,
                 acm_bits: int = 16,
                 name: str = "broker") -> None:
        self.name = name
        self.layout = FamLayout(fam_config.capacity_bytes, acm_bits=acm_bits)
        self.acm = AcmStore(self.layout)
        self.registry = NodeRegistry(acm_bits)
        self.fam_allocator = FrameAllocator(
            base=0, n_frames=self.layout.usable_pages,
            page_bytes=PAGE_BYTES, policy=allocation.fam_policy,
            seed=allocation.seed, name=f"{name}.fam")
        self._tables: Dict[int, FourLevelPageTable] = {}
        self.stats = Stats(name)
        # Counter dict and the ACM store's entry maps, hoisted off the
        # first-touch grant.
        self._counters = self.stats._counters
        self._acm_entries = self.acm._entries
        self._acm_owned = self.acm._owned

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def register_node(self, node_id: int) -> None:
        """Admit a node: gives it an empty system page table."""
        self.registry.register_node(node_id)
        # Frames backing system-page-table pages live in FAM.
        self._tables[node_id] = FourLevelPageTable(
            self.fam_allocator.allocate, name=f"{self.name}.spt{node_id}")
        self.stats.incr("nodes_registered")

    def system_table(self, node_id: int) -> FourLevelPageTable:
        """The node's system page table (raises for unknown nodes)."""
        table = self._tables.get(node_id)
        if table is None:
            raise ConfigError(f"node {node_id} not registered with broker")
        return table

    # ------------------------------------------------------------------
    # Page grants
    # ------------------------------------------------------------------
    def allocate_for_node(self, node_id: int, node_page: int,
                          perm_code: int = PERM_RW) -> int:
        """Back a node physical page with a fresh FAM frame.

        Installs the system-table mapping and the ACM entry; returns
        the FAM page number.
        """
        table = self.system_table(node_id)
        if node_page in table:
            raise ConfigError(
                f"node {node_id} page {node_page:#x} already backed")
        frame_addr = self.fam_allocator.allocate()
        fam_page = frame_addr // PAGE_BYTES
        table.map(node_page, fam_page)
        self.acm.set_owner(fam_page, node_id, perm_code)
        self.stats.incr("pages_granted")
        return fam_page

    def ensure_mapped(self, node_id: int, node_page: int,
                      perm_code: int = PERM_RW) -> int:
        """Idempotent grant: return the existing FAM page or allocate.

        A node's first touch of a FAM-zone page lands here, so the
        grant is done in one call: one probe of the table's walk store,
        then :meth:`allocate_for_node`'s body, with the ACM store's
        shared ``(owner, perm)`` entry stored in place once
        :meth:`~repro.acm.store.AcmStore.set_owner` has built it.
        """
        table = self._tables.get(node_id)
        if table is None:
            raise ConfigError(f"node {node_id} not registered with broker")
        walk = table._walks.get(node_page)
        if walk is not None:
            return walk[0]
        fam_page = self.fam_allocator.allocate() // PAGE_BYTES
        table.map(node_page, fam_page)
        owned = self._acm_owned.get((node_id, perm_code))
        if owned is None:
            self.acm.set_owner(fam_page, node_id, perm_code)
        else:
            self._acm_entries[fam_page] = owned
        self._counters["pages_granted"] += 1.0
        return fam_page

    def translate(self, node_id: int, node_page: int) -> int:
        """System-level translation (functional view, no timing)."""
        fam_page = self.system_table(node_id).lookup(node_page)
        if fam_page is None:
            raise TranslationFault(
                f"node {node_id} page {node_page:#x} not FAM-backed")
        return fam_page

    def release_page(self, node_id: int, node_page: int) -> None:
        """Return a page to the pool and scrub its metadata."""
        table = self.system_table(node_id)
        fam_page = table.lookup(node_page)
        if fam_page is None:
            raise TranslationFault(
                f"node {node_id} page {node_page:#x} not mapped")
        table.unmap(node_page)
        self.acm.clear(fam_page)
        self.fam_allocator.free(fam_page * PAGE_BYTES)
        self.stats.incr("pages_released")

    # ------------------------------------------------------------------
    # Shared segments (Section III-A / VI)
    # ------------------------------------------------------------------
    def create_shared_segment(self, grants: Dict[int, int],
                              n_pages: int) -> SharedSegment:
        """Build a shared segment visible to several nodes.

        Parameters
        ----------
        grants:
            ``node_id -> perm_code`` — per-node permission classes
            (the paper's mixed-permission sharing).
        n_pages:
            Physically contiguous 4 KB pages to reserve (sharing is
            tracked at 1 GB granularity; small segments still work,
            they just dedicate their region's bitmap).
        """
        if not grants:
            raise ConfigError("shared segment needs at least one grantee")
        for node_id in grants:
            if not self.registry.is_registered(node_id):
                raise ConfigError(f"grantee node {node_id} not registered")
        frames = self.fam_allocator.allocate_contiguous_run(n_pages)
        fam_pages = tuple(addr // PAGE_BYTES for addr in frames)
        regions = []
        for fam_page in fam_pages:
            self.acm.mark_shared(fam_page)
            region = self.layout.region_of(fam_page * PAGE_BYTES)
            if region not in regions:
                regions.append(region)
        for region in regions:
            bitmap = self.acm.bitmap_for_region(region)
            for node_id, perm_code in grants.items():
                bitmap.grant(node_id, perm_code)
        self.stats.incr("shared_segments")
        self.stats.incr("shared_pages", n_pages)
        return SharedSegment(fam_pages=fam_pages, regions=tuple(regions),
                             grants=tuple(sorted(grants.items())))

    def map_shared_into_node(self, node_id: int, node_page_start: int,
                             segment: SharedSegment) -> None:
        """Install a shared segment into a node's system table."""
        if node_id not in {n for n, _ in segment.grants}:
            raise ConfigError(
                f"node {node_id} holds no grant on this segment")
        table = self.system_table(node_id)
        for offset, fam_page in enumerate(segment.fam_pages):
            table.map(node_page_start + offset, fam_page)

    # ------------------------------------------------------------------
    # Job migration (Section VI)
    # ------------------------------------------------------------------
    def migrate_node_pages(
            self, from_node: int, to_node: int,
            on_invalidate: Optional[Callable[[int, int], None]] = None,
    ) -> MigrationReport:
        """Move every page owned by ``from_node`` to ``to_node``.

        Performs the three shootdown steps the paper lists: update the
        in-FAM translation state (system table), update ACM owners at
        global memory, and notify the node so it can invalidate its
        translation caches (``on_invalidate(node_page, fam_page)``).
        """
        src = self.system_table(from_node)
        dst = self.system_table(to_node)
        report = MigrationReport()
        mappings = list(src.iter_mappings())
        marker_shared = self.layout.acm_bits
        for node_page, fam_page in mappings:
            acm_entry = self.acm.entry_of(fam_page)
            if acm_entry is not None and acm_entry.is_shared(marker_shared):
                continue  # shared pages are not owned; they stay put
            src.unmap(node_page)
            dst.map(node_page, fam_page)
            report.table_updates += 2
            perm = acm_entry.perm_code if acm_entry else PERM_RW
            self.acm.set_owner(fam_page, to_node, perm)
            report.acm_writes += 1
            report.pages_moved += 1
            if on_invalidate is not None:
                on_invalidate(node_page, fam_page)
                report.translation_cache_invalidations += 1
                report.stu_invalidations += 1
        self.stats.incr("migrations")
        return report

    # ------------------------------------------------------------------
    @property
    def fam_utilization(self) -> float:
        return self.fam_allocator.utilization
