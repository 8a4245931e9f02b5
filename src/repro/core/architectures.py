"""The four virtual-memory architectures (Table I).

Each architecture is a stateless strategy describing how a node's
FAM-zone access crosses the fabric:

* :class:`EFam` — exposed FAM: the node's OS was patched to know real
  FAM addresses, so the request goes straight to memory.  Fast, no STU,
  **no access control** (the insecure upper bound).
* :class:`IFam` — indirect FAM: the STU caches combined
  {mapping + ACM} entries and walks the system page table on misses
  (the state-of-the-art baseline, after Lim et al. [33] with
  Bhargava-style walk caches [8]).
* :class:`DeactW` / :class:`DeactN` — the contribution: translation is
  served from the node's in-DRAM FAM translation cache (unverified),
  and the STU only verifies access-control metadata, cached
  way-contiguously (W) or as non-contiguous sub-way pairs (N).

Strategies hold no per-node state — nodes carry their own STU and FAM
translator — so one instance can serve every node in a system.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Type, Union

from repro.acm.metadata import Permission
from repro.config.system import PAGE_BYTES, StuConfig
from repro.core.node import Node
from repro.errors import ConfigError, ProtocolError
from repro.mem.request import RequestKind
from repro.stu.organizations import (
    DeactNAcmCache,
    DeactWAcmCache,
    IFamStuCache,
)

#: Enum attribute lookups hoisted off the per-access path.
_PERM_READ = Permission.READ
_PERM_WRITE = Permission.WRITE

#: Page geometry as shifts/masks for the fast access procedures
#: (PAGE_BYTES is a power of two; ``addr // PAGE_BYTES == addr >> SHIFT``
#: and ``page * PAGE_BYTES + offset == (page << SHIFT) | offset``).
_PAGE_SHIFT = PAGE_BYTES.bit_length() - 1
_PAGE_MASK = PAGE_BYTES - 1

__all__ = [
    "Architecture",
    "EFam",
    "IFam",
    "DeactW",
    "DeactN",
    "ARCHITECTURES",
    "make_architecture",
]


class Architecture(ABC):
    """Strategy interface for a FAM virtual-memory scheme."""

    #: Registry key and display name.
    key: str = "abstract"
    display_name: str = "abstract"
    #: Whether nodes need an STU attached.
    needs_stu: bool = True
    #: Whether nodes carry a FAM translator + in-DRAM translation cache.
    uses_translator: bool = False
    #: Table I columns.
    secure: bool = True
    avoids_os_changes: bool = True

    @abstractmethod
    def fam_access_fast(self, node: Node, npa: int, now: float,
                        is_write: bool, kind: RequestKind) -> float:
        """Carry one FAM-zone access from the node to completion.

        Returns the completion time seen by the node: the response
        arrival for reads, the service completion for (posted) writes.
        Implementations are allocation-free (this runs on the per-event
        hot path); the seed's boxed procedures are preserved in
        :mod:`repro.core.refpath`, and the hot-path equivalence suite
        pins the two to identical accounting.
        """

    def make_stu_organization(self, config: StuConfig) -> Union[
            IFamStuCache, DeactWAcmCache, DeactNAcmCache, None]:
        """The STU cache organization this architecture uses."""
        return None

    def translation_hit_rate(self, node: Node) -> float:
        """System-translation hit rate (Figure 10) for this node."""
        return 1.0

    def acm_hit_rate(self, node: Node) -> float:
        """ACM hit rate (Figure 9) for this node."""
        return 1.0


class EFam(Architecture):
    """Exposed FAM: no indirection, no verification (Table I row 1)."""

    key = "e-fam"
    display_name = "E-FAM"
    needs_stu = False
    uses_translator = False
    secure = False
    avoids_os_changes = False  # requires a patched kernel

    def fam_access_fast(self, node: Node, npa: int, now: float,
                        is_write: bool, kind: RequestKind) -> float:
        fam_page = node.broker.translate(node.node_id, npa >> _PAGE_SHIFT)
        fam_addr = (fam_page << _PAGE_SHIFT) | (npa & _PAGE_MASK)
        depart = node.fabric.node_to_fam_arrival(now)
        served = node.fam.access(fam_addr, depart, is_write=is_write,
                                 kind=kind, node_id=node.node_id)
        if is_write:
            return served
        return node.fabric.fam_to_node_arrival(served)


class IFam(Architecture):
    """Indirect FAM: STU-mediated two-level translation (the paper's
    secure-but-slow baseline)."""

    key = "i-fam"
    display_name = "I-FAM"
    needs_stu = True
    uses_translator = False

    def make_stu_organization(self, config: StuConfig) -> IFamStuCache:
        return IFamStuCache(config)

    def fam_access_fast(self, node: Node, npa: int, now: float,
                        is_write: bool, kind: RequestKind) -> float:
        stu = node.stu
        if stu is None:
            raise ProtocolError("I-FAM node has no STU attached")
        t = node.fabric.node_to_stu_arrival(now)
        fam_page, t, hit = stu.ifam_translate(npa >> _PAGE_SHIFT, t)
        if hit:
            node._stat_counters["stu.translation_hits"] += 1.0
        else:
            node._stat_counters["stu.translation_misses"] += 1.0
        fam_addr = (fam_page << _PAGE_SHIFT) | (npa & _PAGE_MASK)
        # Access control rides along with the cached mapping; the
        # decision itself is checked functionally against the
        # authoritative store.
        node.broker.acm.verify(node.node_id, fam_addr,
                               _PERM_WRITE if is_write else _PERM_READ)
        depart = node.fabric.stu_to_fam_arrival(t)
        served = node.fam.access(fam_addr, depart, is_write=is_write,
                                 kind=kind, node_id=node.node_id)
        if is_write:
            return served
        return node.fabric.fam_to_node_arrival(served)

    def translation_hit_rate(self, node: Node) -> float:
        org = node.stu.organization if node.stu else None
        return org.hit_rate if org is not None else 0.0

    def acm_hit_rate(self, node: Node) -> float:
        # In I-FAM the ACM is coupled to the mapping: one hit rate.
        return self.translation_hit_rate(node)


class _DeactBase(Architecture):
    """Shared DeACT machinery; subclasses choose the ACM organization."""

    needs_stu = True
    uses_translator = True

    def fam_access_fast(self, node: Node, npa: int, now: float,
                        is_write: bool, kind: RequestKind) -> float:
        stu = node.stu
        translator = node.fam_translator
        if stu is None or translator is None:
            raise ProtocolError("DeACT node missing STU or FAM translator")
        node_page = npa >> _PAGE_SHIFT
        offset = npa & _PAGE_MASK
        needed = _PERM_WRITE if is_write else _PERM_READ

        # Section III-A aside: with per-node memory encryption keys,
        # reads need no access-control check (stolen ciphertext is
        # useless); the STU only vets writes.
        skip_verification = (stu.config.encrypted_memory_mode
                             and not is_write)

        fam_page, lookup_done = translator.lookup_fast(node_page, now)
        if fam_page is not None:
            # Verified-flag path: node supplies the FAM address; the
            # STU only checks access control.
            fam_addr = (fam_page << _PAGE_SHIFT) | offset
            t = node.fabric.node_to_stu_arrival(lookup_done)
            if skip_verification:
                node._stat_counters["stu.reads_unverified"] += 1.0
            else:
                t = stu.verify_access_fast(fam_addr, t, needed=needed)
            # Registered only once verification passed: a denied read
            # gets no response to re-address.
            if not is_write:
                translator.register_response_mapping(
                    _fresh_request_id(), fam_addr, npa)
        else:
            # V=0 path: the STU walks the system page table on behalf
            # of the FAM translator, then verifies.
            t = node.fabric.node_to_stu_arrival(lookup_done)
            fam_page, walk_done = stu.walk_system_table_fast(node_page, t)
            fam_addr = (fam_page << _PAGE_SHIFT) | offset
            if skip_verification:
                node._stat_counters["stu.reads_unverified"] += 1.0
                t = walk_done
            else:
                t = stu.verify_access_fast(fam_addr, walk_done,
                                           needed=needed)
            # Mapping response: the STU ships {node page -> FAM page}
            # back; the translator read-modify-writes its DRAM row.
            # Off the data's critical path but real DRAM bank work.
            mapping_at_node = node.fabric.stu_to_node_arrival(t)
            translator.install(node_page, fam_page, mapping_at_node)
            if not is_write:
                translator.register_response_mapping(
                    _fresh_request_id(), fam_addr, npa)

        depart = node.fabric.stu_to_fam_arrival(t)
        served = node.fam.access(fam_addr, depart, is_write=is_write,
                                 kind=kind, node_id=node.node_id)
        if is_write:
            return served
        arrival = node.fabric.fam_to_node_arrival(served)
        # Response re-addressing through the outstanding mapping list.
        translator.outstanding.resolve(_last_request_id())
        return arrival

    def translation_hit_rate(self, node: Node) -> float:
        return (node.fam_translator.hit_rate
                if node.fam_translator is not None else 0.0)

    def acm_hit_rate(self, node: Node) -> float:
        org = node.stu.organization if node.stu else None
        return org.hit_rate if org is not None else 0.0


# The outstanding-mapping list needs request identities; the simulator
# processes one FAM access at a time per call, so a module-level
# monotonic id is race-free and keeps the list exercised end to end.
_request_counter = 0


def _fresh_request_id() -> int:
    global _request_counter
    _request_counter += 1
    return _request_counter


def _last_request_id() -> int:
    return _request_counter


class DeactW(_DeactBase):
    """DeACT with way-contiguous ACM caching (Figure 8b)."""

    key = "deact-w"
    display_name = "DeACT-W"

    def make_stu_organization(self, config: StuConfig) -> DeactWAcmCache:
        return DeactWAcmCache(config)


class DeactN(_DeactBase):
    """DeACT with non-contiguous sub-way ACM caching (Figure 8c)."""

    key = "deact-n"
    display_name = "DeACT-N"

    def make_stu_organization(self, config: StuConfig) -> DeactNAcmCache:
        return DeactNAcmCache(config)


ARCHITECTURES: Dict[str, Type[Architecture]] = {
    cls.key: cls for cls in (EFam, IFam, DeactW, DeactN)
}


def make_architecture(name: Union[str, Architecture]) -> Architecture:
    """Instantiate an architecture by registry key (case-insensitive)."""
    if isinstance(name, Architecture):
        return name
    cls = ARCHITECTURES.get(name.lower())
    if cls is None:
        raise ConfigError(
            f"unknown architecture {name!r}; choose from "
            f"{', '.join(sorted(ARCHITECTURES))}")
    return cls()
