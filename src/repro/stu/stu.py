"""The System Translation Unit: walking, verification, timing.

One STU instance serves one node (the paper proposes an STU per node,
implemented in the router connecting that node to the fabric).  It is
the only component allowed to read access-control metadata, and the
only path by which a node request reaches the FAM.

The unit exposes three timed operations used by the architecture
strategies in :mod:`repro.core.architectures`:

* :meth:`ifam_translate` — the I-FAM combined lookup/walk.
* :meth:`walk_system_table_fast` — a FAM page-table walk on behalf of
  a DeACT FAM-translator miss (serial FAM round trips per level, one
  per entry address the walker returns).
* :meth:`verify_access_fast` — the DeACT verification step: ACM cache
  lookup, metadata-block fetch from FAM on a miss, shared-page bitmap
  consultation, and the actual allow/deny decision against the
  authoritative :class:`~repro.acm.store.AcmStore`.

:meth:`ifam_translate` and :meth:`verify_access_fast` probe and fill
the organization's tag store in place, as
:meth:`~repro.pagetable.walker.PageTableWalker.walk` does its walk
caches: one call per modeled operation, with no call into the
organization or the store.  The miss paths are straight-line too:
:meth:`walk_system_table_fast` bumps its counters in the hoisted dict
and makes each dependent FAM read three calls (the two hop primitives
and a positional ``NvmDevice.access``), and an ACM miss computes the
metadata-block address from the layout constants hoisted at
construction (``FamLayout.acm_block_addr``'s arithmetic, after the
usable-range check).  :mod:`repro.core.refpath` composes the seed
calls instead: the organization's ``lookup`` and ``install``, and the
layout's address derivation.

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

#: Enum attribute lookups hoisted off the miss paths.
_KIND_FAM_PTW = RequestKind.FAM_PTW
_KIND_ACM = RequestKind.ACM


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
        # Counter dict and lookup latency hoisted off the per-access
        # path.
        self._counters = self.stats._counters
        self._lookup_ns = config.lookup_ns
        # The organization's tag store, probed and filled in place:
        # the I-FAM mapping cache, or the DeACT ACM cache with the FAM
        # bytes one of its keys covers (a way's page group for
        # DeACT-W, one page for DeACT-N).  ``None`` where the
        # organization is of the other kind.
        store = organization._cache if organization is not None else None
        self._mapping_cache = (store if isinstance(organization,
                                                   IFamStuCache) else None)
        self._acm_cache = (store if isinstance(
            organization, (DeactWAcmCache, DeactNAcmCache)) else None)
        self._acm_key_bytes = acm_store.layout.page_bytes * (
            organization.pages_per_way
            if isinstance(organization, DeactWAcmCache) else 1)
        # FAM layout geometry for the inline usable-range check and
        # the ACM-miss metadata-block address.
        # The usable region is [0, metadata_base).
        layout = acm_store.layout
        self._metadata_base = layout.metadata_base
        self._page_bytes = layout.page_bytes
        self._acm_bits = layout.acm_bits
        self._block_bytes = layout.block_bytes
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
        I-FAM) is installed.  The cache is probed and filled in place
        (LRU; ``node_page`` is absent when the fill runs, since the
        walk touches no STU cache).
        """
        cache = self._mapping_cache
        if cache is None:
            raise ProtocolError(
                f"{self.name}: ifam_translate on a {type(self.organization)}")
        t = now + self._lookup_ns
        mask = cache._mask
        lines = cache._sets[node_page & mask if mask >= 0
                            else node_page % cache.n_sets]
        fam_page = lines.pop(node_page, None)
        if fam_page is not None:
            cache.hits += 1
            lines[node_page] = fam_page
            self._counters["mapping.hits"] += 1.0
            return fam_page, t, True
        cache.misses += 1
        self._counters["mapping.misses"] += 1.0
        fam_page, completion = self.walk_system_table_fast(node_page, t)
        if len(lines) >= cache.associativity:
            del lines[next(iter(lines))]
        lines[node_page] = fam_page
        return fam_page, completion, False

    # ------------------------------------------------------------------
    # System page-table walking (shared by I-FAM and DeACT misses)
    # ------------------------------------------------------------------
    def walk_system_table_fast(self, node_page: int,
                               now: float) -> Tuple[int, float]:
        """Walk the broker-maintained system page table; returns
        ``(fam_page, completion_ns)``.

        The walker hands back the entry addresses that survive the
        STU's walk caches; each is a dependent FAM read: router -> FAM
        port -> NVM bank -> router, one call to each hop primitive and
        to ``NvmDevice.access``, looked up once per walk.
        """
        fam_page, addrs = self.walker.walk(node_page)
        # Queue behind any walk already in flight at this STU's PTW
        # unit, then hold the unit for the whole walk.
        t = self._ptw_busy_until
        if t > now:
            self._counters["ptw_queue_time"] += t - now
        else:
            t = now
        fabric = self.fabric
        to_fam = fabric.stu_to_fam_arrival
        to_stu = fabric.fam_to_stu_arrival
        fam_access = self.fam.access
        node_id = self.node_id
        for addr in addrs:
            t = to_stu(fam_access(addr, to_fam(t), False, _KIND_FAM_PTW,
                                  node_id))
        self._ptw_busy_until = t
        self._counters["walks"] += 1.0
        return fam_page, t

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
        cache = self._acm_cache
        if cache is None:
            raise ProtocolError(
                f"{self.name}: verify_access needs a DeACT ACM cache")
        if not 0 <= fam_addr < self._metadata_base:
            self.acm_store.layout._check_usable(fam_addr)
        t = now + self._lookup_ns
        # The ACM cache, probed and filled in place (LRU; the key is
        # absent when the fill runs, since the fetch touches no STU
        # cache).
        key = fam_addr // self._acm_key_bytes
        mask = cache._mask
        lines = cache._sets[key & mask if mask >= 0 else key % cache.n_sets]
        if lines.pop(key, None) is not None:
            cache.hits += 1
            lines[key] = True
            self._counters["acm.hits"] += 1.0
        else:
            cache.misses += 1
            self._counters["acm.misses"] += 1.0
            # FamLayout.acm_block_addr's arithmetic; fam_addr passed
            # the usable-range check above.
            entry_addr = self._metadata_base + (
                fam_addr // self._page_bytes * self._acm_bits) // 8
            block_addr = entry_addr - entry_addr % self._block_bytes
            fabric = self.fabric
            t = fabric.fam_to_stu_arrival(self.fam.access(
                block_addr, fabric.stu_to_fam_arrival(t), False, _KIND_ACM,
                self.node_id))
            if len(lines) >= cache.associativity:
                del lines[next(iter(lines))]
            lines[key] = True

        allowed, consulted_bitmap = self.acm_store.check(
            self.node_id, fam_addr, needed)
        if consulted_bitmap:
            # Shared page: fetch the region bitmap block covering this
            # node's bits.
            bitmap_addr = self.acm_store.layout.bitmap_block_addr(
                fam_addr, self.node_id)
            depart = self.fabric.stu_to_fam_arrival(t)
            served = self.fam.access(bitmap_addr, depart, False, _KIND_ACM,
                                     self.node_id)
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
