"""Banked DRAM and NVM device models.

Both devices are banks of busy-until FIFO servers (see
:mod:`repro.sim.resource`).  The NVM FAM additionally enforces the
Table II outstanding-request limit (128) and keeps the AT/non-AT
request census behind Figures 4 and 11.  Node DRAM keeps no census:
its banks' reservations are its only record.

The FAM's census keeps only what it cannot derive (its ``access`` runs
several times per trace event): ``access`` bumps ``writes`` on a
write, ``kind_counts[kind]`` and ``node_counts[node_id]``, all plain
attributes.  ``accesses`` (the sum of ``kind_counts``), ``reads``
(``accesses - writes``) and ``at_accesses`` (the translation kinds'
counts) are properties derived from them, and
:meth:`NvmDevice.snapshot` materializes all of it into the dict shape
the experiment harness consumes.

Both ``access`` methods are ``@hot_path`` and are the one real call
of their layer per access.  Each picks its bank in line (the arithmetic
of ``BankedResource.reserve``), and ``NvmDevice.access`` also drains
the outstanding window, admits into a not-full window and records the
completion in line; only a full window calls
``OutstandingWindow.admit``.  The chosen bank is still reserved by
calling ``bank.reserve(...)``, looked up at call time, so a wrapper
installed on ``TimedResource.reserve`` sees every reservation.  The
composed seed bodies live in :mod:`repro.core.refpath`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Optional

from repro.config.system import BLOCK_BYTES, FamConfig, LocalMemoryConfig
from repro.core.hotpath import hot_path
from repro.mem.request import RequestKind
from repro.sim.resource import BankedResource, OutstandingWindow

__all__ = ["DramDevice", "NvmDevice"]


class DramDevice:
    """Node-local DRAM: symmetric read/write latency, a few banks."""

    def __init__(self, config: LocalMemoryConfig, name: str = "dram") -> None:
        self.config = config
        self.name = name
        self.banks = BankedResource(name, config.banks, BLOCK_BYTES)
        _hoist_bank_selection(self, self.banks)
        self._access_ns = config.access_ns

    @hot_path
    def access(self, addr: int, now: float) -> float:
        """Issue one 64 B read or write (same latency); returns
        completion time."""
        block = addr >> self._interleave_shift
        mask = self._bank_mask
        bank = self._banks[block & mask if mask >= 0 else
                           block % self._n_banks]
        return bank.reserve(now, self._access_ns)


class NvmDevice:
    """The fabric-attached NVM pool (Table II: 16 GB, 60/150 ns
    read/write, 32 banks, 128 outstanding requests).

    The outstanding window applies back-pressure: when 128 requests are
    in flight, a new arrival waits for the oldest completion before its
    bank reservation begins — the admission rule the paper's simulated
    FAM controller enforces.
    """

    def __init__(self, config: FamConfig, name: str = "fam") -> None:
        self.config = config
        self.name = name
        self.banks = BankedResource(name, config.banks, BLOCK_BYTES)
        self.window = OutstandingWindow(config.max_outstanding,
                                        name=f"{name}.outstanding")
        _hoist_bank_selection(self, self.banks)
        # The window's heap, drained and pushed in line by ``access``.
        self._completions = self.window._completions
        self._capacity = config.max_outstanding
        self._read_ns = config.read_ns
        self._write_ns = config.write_ns
        self.writes = 0
        self.kind_counts: Dict[RequestKind, int] = {
            kind: 0 for kind in RequestKind}
        self.node_counts: Dict[int, int] = {}

    @hot_path
    def access(self, addr: int, now: float, is_write: bool = False,
               kind: RequestKind = RequestKind.DATA,
               node_id: Optional[int] = None) -> float:
        """Issue one 64 B access; returns completion time.

        Also bumps the census of requests *observed at the FAM*, whose
        AT/non-AT split is the quantity plotted in Figures 4 and 11:
        ``writes`` on a write, the request's kind and its node.
        """
        if is_write:
            self.writes += 1
            service = self._write_ns
        else:
            service = self._read_ns
        self.kind_counts[kind] += 1
        if node_id is not None:
            node_counts = self.node_counts
            node_counts[node_id] = node_counts.get(node_id, 0) + 1
        # Outstanding window: drain, then admit (only a full window
        # needs admit's wait for the earliest completion).
        completions = self._completions
        while completions and completions[0] <= now:
            heappop(completions)
        issue = (now if len(completions) < self._capacity
                 else self.window.admit(now))
        block = addr >> self._interleave_shift
        mask = self._bank_mask
        bank = self._banks[block & mask if mask >= 0 else
                           block % self._n_banks]
        completion = bank.reserve(issue, service)
        heappush(completions, completion)
        return completion

    @property
    def accesses(self) -> int:
        return sum(self.kind_counts.values())

    @property
    def reads(self) -> int:
        return self.accesses - self.writes

    @property
    def at_accesses(self) -> int:
        return sum(count for kind, count in self.kind_counts.items()
                   if kind.is_translation)

    @property
    def stats(self) -> "_StatsView":
        """Stats-like read access (``stats.snapshot()``) for harness
        compatibility."""
        return _StatsView(self)

    def snapshot(self) -> Dict[str, float]:
        # Each derived counter is summed once.
        accesses = self.accesses
        at_accesses = self.at_accesses
        counters: Dict[str, float] = {
            "accesses": float(accesses),
            "reads": float(accesses - self.writes),
            "writes": float(self.writes),
            "at_accesses": float(at_accesses),
            "non_at_accesses": float(accesses - at_accesses),
        }
        for kind, count in self.kind_counts.items():
            counters[f"kind.{kind.value}"] = float(count)
        for node_id, count in self.node_counts.items():
            counters[f"node.{node_id}.accesses"] = float(count)
        return counters


def _hoist_bank_selection(device, banks: BankedResource) -> None:
    """Copy ``banks``' interleaving arithmetic onto ``device`` for the
    inlined bank selection in its ``access``.  The bank list is never
    replaced."""
    device._banks = banks._banks
    device._n_banks = banks.n_banks
    device._interleave_shift = banks._interleave_shift
    device._bank_mask = banks._bank_mask


class _StatsView:
    """Adapter exposing ``snapshot()``/``get()`` over device counters."""

    def __init__(self, device: NvmDevice) -> None:
        self._device = device

    def snapshot(self) -> Dict[str, float]:
        return self._device.snapshot()

    def get(self, key: str, default: float = 0.0) -> float:
        return self._device.snapshot().get(key, default)
