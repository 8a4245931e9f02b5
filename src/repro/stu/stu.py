"""The System Translation Unit: walking, verification, timing.

One STU instance serves one node (the paper proposes an STU per node,
implemented in the router connecting that node to the fabric).  It is
the only component allowed to read access-control metadata, and the
only path by which a node request reaches the FAM.

The unit exposes three timed operations used by the architecture
strategies in :mod:`repro.core.architectures`:

* :meth:`ifam_translate` — the I-FAM combined lookup/walk.
* :meth:`walk_system_table_fast` — a FAM page-table walk on behalf of
  a DeACT FAM-translator miss (serial FAM round trips per level).
* :meth:`verify_access_fast` — the DeACT verification step: ACM cache
  lookup, metadata-block fetch from FAM on a miss, shared-page bitmap
  consultation, and the actual allow/deny decision against the
  authoritative :class:`~repro.acm.store.AcmStore`.

:meth:`verify_access` runs the same verification and also reports its
outcome as a :class:`VerificationResult`, for callers outside the
simulation loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.acm.metadata import Permission
from repro.acm.store import AcmStore
from repro.config.system import StuConfig
from repro.errors import AccessViolationError, ProtocolError
from repro.fabric.network import FabricNetwork
from repro.mem.device import NvmDevice
from repro.mem.request import RequestKind
from repro.pagetable.walker import PageTableWalker
from repro.sim.stats import Stats
from repro.stu.organizations import DeactNAcmCache, DeactWAcmCache, IFamStuCache

__all__ = ["Stu", "VerificationResult"]


@dataclass
class VerificationResult:
    """Outcome of a DeACT access verification."""

    allowed: bool
    completion_ns: float
    acm_hit: bool
    bitmap_fetched: bool


class Stu:
    """Per-node system translation unit."""

    def __init__(self, node_id: int, config: StuConfig,
                 acm_store: AcmStore, walker: PageTableWalker,
                 fabric: FabricNetwork, fam: NvmDevice,
                 organization: Union[IFamStuCache, DeactWAcmCache,
                                     DeactNAcmCache, None],
                 name: str = "stu") -> None:
        self.node_id = node_id
        self.config = config
        self.acm_store = acm_store
        self.walker = walker
        self.fabric = fabric
        self.fam = fam
        self.organization = organization
        self.name = name
        self.stats = Stats(name)
        # Counter dict, organization kind and lookup latency hoisted
        # off the per-verification path.
        self._counters = self.stats._counters
        self._org_is_deact = isinstance(organization,
                                        (DeactWAcmCache, DeactNAcmCache))
        self._lookup_ns = config.lookup_ns
        # FAM layout geometry for the inline page derivation.
        self._usable_end = acm_store.layout.metadata_base
        self._page_bytes = acm_store.layout.page_bytes
        # The STU has a single FAM-PTW unit (Figure 6): concurrent
        # translation misses from one node serialize behind it.  This
        # is the mechanism that lets translation misses destroy
        # memory-level parallelism in I-FAM — the core can overlap 32
        # data misses, but their walks form a queue at the STU.
        self._ptw_busy_until = 0.0

    # ------------------------------------------------------------------
    # I-FAM combined path
    # ------------------------------------------------------------------
    def ifam_translate(self, node_page: int,
                       now: float) -> Tuple[int, float, bool]:
        """Translate a node page through the combined STU cache.

        Returns ``(fam_page, completion_ns, hit)``.  On a miss, the
        system page table is walked with serial FAM round trips and
        the mapping (including its ACM, which travels with the PTE in
        I-FAM) is installed.
        """
        if not isinstance(self.organization, IFamStuCache):
            raise ProtocolError(
                f"{self.name}: ifam_translate on a {type(self.organization)}")
        t = now + self.config.lookup_ns
        fam_page = self.organization.lookup(node_page)
        if fam_page is not None:
            self._counters["mapping.hits"] += 1.0
            return fam_page, t, True
        self._counters["mapping.misses"] += 1.0
        fam_page, completion = self.walk_system_table_fast(node_page, t)
        self.organization.install(node_page, fam_page)
        return fam_page, completion, False

    # ------------------------------------------------------------------
    # System page-table walking (shared by I-FAM and DeACT misses)
    # ------------------------------------------------------------------
    def walk_system_table_fast(self, node_page: int,
                               now: float) -> Tuple[int, float]:
        """Walk the broker-maintained system page table; returns
        ``(fam_page, completion_ns)``.

        Each surviving level (after the STU's walk caches) is a
        dependent FAM read: router -> FAM port -> NVM bank -> router.
        """
        result = self.walker.walk(node_page)
        # Queue behind any walk already in flight at this STU's PTW
        # unit, then hold the unit for the whole walk.
        t = now if now > self._ptw_busy_until else self._ptw_busy_until
        if t > now:
            self.stats.incr("ptw_queue_time", t - now)
        for step in result.steps:
            depart = self.fabric.stu_to_fam_arrival(t)
            served = self.fam.access(step.entry_addr, depart,
                                     is_write=False,
                                     kind=RequestKind.FAM_PTW,
                                     node_id=self.node_id)
            t = self.fabric.fam_to_stu_arrival(served)
        self._ptw_busy_until = t
        self._counters["walks"] += 1.0
        self._counters["walk_accesses"] += float(len(result.steps))
        return result.frame, t

    # ------------------------------------------------------------------
    # DeACT verification path
    # ------------------------------------------------------------------
    def verify_access_fast(self, fam_addr: int, now: float,
                           needed: Permission = Permission.READ,
                           enforce: bool = True) -> float:
        """Verify that this STU's node may access ``fam_addr``.

        Returns the completion time only.  Timing: an ACM-cache
        lookup; on a miss, one FAM round trip to fetch the 64 B
        metadata block (installed for reuse); for shared pages, one
        further FAM round trip for the bitmap block.

        Raises
        ------
        AccessViolationError
            When ``enforce`` is set and the metadata denies the access.
        """
        if not self._org_is_deact:
            raise ProtocolError(
                f"{self.name}: verify_access needs a DeACT ACM cache")
        layout = self.acm_store.layout
        if not 0 <= fam_addr < self._usable_end:
            layout._check_usable(fam_addr)
        fam_page = fam_addr // self._page_bytes
        t = now + self._lookup_ns
        acm_hit = self.organization.lookup(fam_page)
        if acm_hit:
            self._counters["acm.hits"] += 1.0
        else:
            self._counters["acm.misses"] += 1.0
            block_addr = layout.acm_block_addr(fam_addr)
            depart = self.fabric.stu_to_fam_arrival(t)
            served = self.fam.access(block_addr, depart, is_write=False,
                                     kind=RequestKind.ACM,
                                     node_id=self.node_id)
            t = self.fabric.fam_to_stu_arrival(served)
            self.organization.install(fam_page)

        allowed, consulted_bitmap = self.acm_store.check(
            self.node_id, fam_addr, needed)
        if consulted_bitmap:
            # Shared page: fetch the region bitmap block covering this
            # node's bits.
            bitmap_addr = layout.bitmap_block_addr(fam_addr, self.node_id)
            depart = self.fabric.stu_to_fam_arrival(t)
            served = self.fam.access(bitmap_addr, depart, is_write=False,
                                     kind=RequestKind.ACM,
                                     node_id=self.node_id)
            t = self.fabric.fam_to_stu_arrival(served)
            self.stats.incr("bitmap_fetches")

        if not allowed:
            self.stats.incr("violations")
            if enforce:
                raise AccessViolationError(
                    f"{self.name}: node {self.node_id} denied {needed!r} "
                    f"at FAM {fam_addr:#x}",
                    node_id=self.node_id, fam_addr=fam_addr)
        return t

    def verify_access(self, fam_addr: int, now: float,
                      needed: Permission = Permission.READ,
                      enforce: bool = True) -> VerificationResult:
        """:meth:`verify_access_fast` with its outcome, read off the
        counters it bumps (for callers that inspect the ACM-cache and
        bitmap outcomes, or a denied access with ``enforce`` off)."""
        counters = self._counters
        violations = counters.get("violations", 0.0)
        acm_hits = counters.get("acm.hits", 0.0)
        bitmap_fetches = counters.get("bitmap_fetches", 0.0)
        t = self.verify_access_fast(fam_addr, now, needed=needed,
                                    enforce=enforce)
        return VerificationResult(
            allowed=counters.get("violations", 0.0) == violations,
            completion_ns=t,
            acm_hit=counters.get("acm.hits", 0.0) != acm_hits,
            bitmap_fetched=counters.get("bitmap_fetches", 0.0)
            != bitmap_fetches)

    # ------------------------------------------------------------------
    # Shootdown hooks (job migration, Section VI)
    # ------------------------------------------------------------------
    def invalidate_fam_page(self, fam_page: int) -> None:
        """Drop any ACM cached for ``fam_page``."""
        org = self.organization
        if isinstance(org, (DeactWAcmCache, DeactNAcmCache)):
            org.invalidate_fam_page(fam_page)
            self.stats.incr("invalidations")

    def invalidate_node_page(self, node_page: int) -> None:
        """Drop an I-FAM mapping for ``node_page``."""
        if isinstance(self.organization, IFamStuCache):
            self.organization.invalidate_node_page(node_page)
            self.stats.incr("invalidations")

    # ------------------------------------------------------------------
    @property
    def acm_hit_rate(self) -> float:
        """Figure 9's y-axis for this node."""
        org = self.organization
        if org is None:
            return 0.0
        return org.hit_rate
