"""Trace containers.

A trace is a sequence of memory-instruction events; each event carries
the number of non-memory instructions since the previous event (the
*gap*), the virtual address, the store flag, and whether the next
instructions depend on the access's result (a *dependent* load stalls
the core until its data returns; independent accesses only occupy an
outstanding-request slot).

:meth:`Trace.decoded` is the vectorized front-end of the simulation
hot path: it decomposes the address column into VPN / page-offset /
block-within-page **once** with NumPy (a handful of whole-array
shifts/masks) instead of re-deriving them per event in Python, then
materializes plain-int columns for the per-event loop (attribute
access on NumPy scalars is an order of magnitude slower than list
items, so the loop consumes lists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence

import numpy as np

from repro.config.system import BLOCK_BYTES, PAGE_BYTES
from repro.errors import TraceError

__all__ = ["TraceEvent", "Trace", "DecodedTrace"]


class DecodedTrace(NamedTuple):
    """Hot-loop columns of a trace, pre-decomposed per event.

    ``vpns`` / ``offsets`` / ``blocks`` are the virtual page number,
    page offset, and block index *within* the page for each event —
    everything the per-event path needs so that translation and cache
    indexing reduce to shifts and ors (physical block =
    ``frame << log2(page/block) | block``).
    """

    gaps: List[int]
    vpns: List[int]
    offsets: List[int]
    blocks: List[int]
    writes: List[bool]
    dependents: List[bool]

    def __len__(self) -> int:
        return len(self.gaps)


class TraceEvent(NamedTuple):
    """One memory instruction in a trace."""

    gap: int
    vaddr: int
    is_write: bool
    dependent: bool


@dataclass
class Trace:
    """An in-memory trace with its provenance.

    Stored as parallel plain-Python lists: the hot simulation loop
    iterates tens of thousands of events, and attribute access on
    NumPy scalars is an order of magnitude slower than list items.
    """

    name: str
    gaps: List[int]
    vaddrs: List[int]
    writes: List[bool]
    dependents: List[bool]

    def __post_init__(self) -> None:
        n = len(self.gaps)
        if not (len(self.vaddrs) == len(self.writes)
                == len(self.dependents) == n):
            raise TraceError(f"trace {self.name!r}: ragged columns")

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[TraceEvent]:
        for gap, vaddr, write, dep in zip(self.gaps, self.vaddrs,
                                          self.writes, self.dependents):
            yield TraceEvent(gap, vaddr, write, dep)

    def __getitem__(self, index: int) -> TraceEvent:
        return TraceEvent(self.gaps[index], self.vaddrs[index],
                          self.writes[index], self.dependents[index])

    @property
    def instructions(self) -> int:
        """Total instructions the trace represents (memory events plus
        their gaps)."""
        return len(self.gaps) + sum(self.gaps)

    def footprint_pages(self, page_bytes: int = 4096) -> int:
        """Distinct 4 KB pages the trace touches."""
        return len({addr // page_bytes for addr in self.vaddrs})

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace (used to shard a workload across nodes)."""
        return Trace(name=f"{self.name}[{start}:{stop}]",
                     gaps=self.gaps[start:stop],
                     vaddrs=self.vaddrs[start:stop],
                     writes=self.writes[start:stop],
                     dependents=self.dependents[start:stop])

    def decoded(self, page_bytes: int = PAGE_BYTES,
                block_bytes: int = BLOCK_BYTES) -> DecodedTrace:
        """Vectorized per-event decomposition, memoized on the trace.

        One pass of whole-array NumPy arithmetic replaces the three
        per-event divisions/modulos the scalar loop used to perform,
        and repeated runs (sweeps re-using memoized traces) pay for it
        once.  Page and block size are fixed constants of the model,
        so the parameters only guard against a caller assuming
        otherwise: any other geometry raises :class:`TraceError`.
        """
        if (page_bytes, block_bytes) != (PAGE_BYTES, BLOCK_BYTES):
            raise TraceError(
                f"decoded traces use {PAGE_BYTES} B pages and "
                f"{BLOCK_BYTES} B blocks, got {page_bytes} B and "
                f"{block_bytes} B")
        decoded = self.__dict__.get("_decoded")
        if decoded is None:
            vaddrs = np.asarray(self.vaddrs, dtype=np.int64)
            offsets = vaddrs & (PAGE_BYTES - 1)
            decoded = DecodedTrace(
                gaps=self.gaps,
                vpns=(vaddrs >> (PAGE_BYTES.bit_length() - 1)).tolist(),
                offsets=offsets.tolist(),
                blocks=(offsets >> (BLOCK_BYTES.bit_length() - 1)).tolist(),
                writes=self.writes,
                dependents=self.dependents)
            self._decoded = decoded
        return decoded
