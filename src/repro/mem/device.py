"""Banked DRAM and NVM device models.

Both devices are banks of busy-until FIFO servers (see
:mod:`repro.sim.resource`).  The NVM FAM additionally enforces the
Table II outstanding-request limit (128) and keeps the AT/non-AT
request census behind Figures 4 and 11.

Counters are plain attributes (these methods run a dozen times per
trace event); :meth:`snapshot` materializes them into the dict shape
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

from repro.config.system import FamConfig, LocalMemoryConfig
from repro.core.hotpath import hot_path
from repro.mem.request import RequestKind
from repro.sim.resource import BankedResource, OutstandingWindow

__all__ = ["DramDevice", "NvmDevice"]


class DramDevice:
    """Node-local DRAM: symmetric read/write latency, a few banks."""

    def __init__(self, config: LocalMemoryConfig, name: str = "dram") -> None:
        self.config = config
        self.name = name
        self.banks = BankedResource(name, config.banks,
                                    config.interleave_bytes)
        _hoist_bank_selection(self, self.banks)
        self._access_ns = config.access_ns
        self.reads = 0
        self.writes = 0
        self.at_accesses = 0

    @hot_path
    def access(self, addr: int, now: float, is_write: bool = False,
               kind: RequestKind = RequestKind.DATA) -> float:
        """Issue one 64 B access; returns completion time."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        if kind.is_translation:
            self.at_accesses += 1
        block = addr >> self._interleave_shift
        mask = self._bank_mask
        bank = self._banks[block & mask if mask >= 0 else
                           block % self._n_banks]
        return bank.reserve(now, self._access_ns)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def snapshot(self) -> Dict[str, float]:
        return {"accesses": float(self.accesses),
                "reads": float(self.reads),
                "writes": float(self.writes),
                "at_accesses": float(self.at_accesses)}

    def reset(self) -> None:
        self.banks.reset()
        self.reads = self.writes = self.at_accesses = 0


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
        self.banks = BankedResource(name, config.banks,
                                    config.interleave_bytes)
        self.window = OutstandingWindow(config.max_outstanding,
                                        name=f"{name}.outstanding")
        _hoist_bank_selection(self, self.banks)
        # The window's heap; ``reset`` clears it in place.
        self._completions = self.window._completions
        self._capacity = config.max_outstanding
        self._read_ns = config.read_ns
        self._write_ns = config.write_ns
        self.reads = 0
        self.writes = 0
        self.at_accesses = 0
        self.kind_counts: Dict[RequestKind, int] = {
            kind: 0 for kind in RequestKind}
        self.node_counts: Dict[int, int] = {}

    @hot_path
    def access(self, addr: int, now: float, is_write: bool = False,
               kind: RequestKind = RequestKind.DATA,
               node_id: Optional[int] = None) -> float:
        """Issue one 64 B access; returns completion time.

        Also maintains the AT/non-AT census of requests *observed at
        the FAM* — the quantity plotted in Figures 4 and 11.
        """
        if is_write:
            self.writes += 1
            service = self._write_ns
        else:
            self.reads += 1
            service = self._read_ns
        self.kind_counts[kind] += 1
        if kind.is_translation:
            self.at_accesses += 1
        if node_id is not None:
            node_counts = self.node_counts
            node_counts[node_id] = node_counts.get(node_id, 0) + 1
        # Outstanding window: drain, then admit (only a full window
        # needs admit's wait for the earliest completion).
        completions = self._completions
        while completions and completions[0] <= now:
            heappop(completions)
        if len(completions) < self._capacity:
            self.window.admissions += 1
            issue = now
        else:
            issue = self.window.admit(now)
        block = addr >> self._interleave_shift
        mask = self._bank_mask
        bank = self._banks[block & mask if mask >= 0 else
                           block % self._n_banks]
        completion = bank.reserve(issue, service)
        heappush(completions, completion)
        return completion

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def stats(self) -> "_StatsView":
        """Stats-like read access (``stats.snapshot()``) for harness
        compatibility."""
        return _StatsView(self)

    def snapshot(self) -> Dict[str, float]:
        counters: Dict[str, float] = {
            "accesses": float(self.accesses),
            "reads": float(self.reads),
            "writes": float(self.writes),
            "at_accesses": float(self.at_accesses),
            "non_at_accesses": float(self.accesses - self.at_accesses),
        }
        for kind, count in self.kind_counts.items():
            counters[f"kind.{kind.value}"] = float(count)
        for node_id, count in self.node_counts.items():
            counters[f"node.{node_id}.accesses"] = float(count)
        return counters

    def reset(self) -> None:
        self.banks.reset()
        self.window.reset()
        self.reads = self.writes = self.at_accesses = 0
        self.kind_counts = {kind: 0 for kind in RequestKind}
        self.node_counts.clear()


def _hoist_bank_selection(device, banks: BankedResource) -> None:
    """Copy ``banks``' interleaving arithmetic onto ``device`` for the
    inlined bank selection in its ``access``.  The bank list is never
    replaced (``reset`` resets each bank in place)."""
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
