"""Busy-until reservation resources.

Instead of enqueueing an event per request on a global calendar, each
contended hardware resource (a DRAM bank, an NVM bank, the FAM-side
fabric port) keeps the time at which it next becomes free.  A request
arriving at ``now`` starts service at ``max(now, busy_until)`` and the
resource's horizon advances by the service time.  This models FIFO
queueing delay exactly for single-server resources while keeping the
simulator fast enough to run the paper's full benchmark matrix in
Python.

Three flavours are provided:

* :class:`TimedResource` — one FIFO server.
* :class:`BankedResource` — N servers selected by address interleaving
  (models DRAM/NVM banks).
* :class:`OutstandingWindow` — a bounded set of in-flight completions
  (models miss-status registers / a core's outstanding-request limit).

The per-access callers inline the cheap parts of the last two: the
memory devices pick the bank themselves (the arithmetic of
:meth:`BankedResource.reserve`) and call the chosen bank's
:meth:`TimedResource.reserve`; :meth:`repro.mem.device.NvmDevice.access`
and :meth:`repro.core.node.Node.run_events` drain their window, admit
into a not-full one and record completions in line, calling
:meth:`OutstandingWindow.admit` only when it is full.  Those callers hold aliases of ``_banks`` and
``_completions``; nothing rebinds either list, since every run builds
its resources fresh.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.errors import ConfigError

__all__ = ["TimedResource", "BankedResource", "OutstandingWindow"]


class TimedResource:
    """A single FIFO server with busy-until reservation semantics."""

    def __init__(self, name: str = "resource") -> None:
        self.name = name
        self._busy_until = 0.0
        self.reservations = 0

    @property
    def busy_until(self) -> float:
        """Earliest time at which a new request could begin service."""
        return self._busy_until

    def reserve(self, now: float, service_ns: float) -> float:
        """Reserve the resource for ``service_ns`` starting no earlier
        than ``now``.

        Returns the *completion* time.  Queueing delay is implicit:
        service begins at ``max(now, busy_until)``.
        """
        if service_ns < 0:
            raise ConfigError(f"negative service time {service_ns} on {self.name}")
        start = now if now > self._busy_until else self._busy_until
        end = start + service_ns
        self._busy_until = end
        self.reservations += 1
        return end


class BankedResource:
    """``n_banks`` independent FIFO servers selected by address.

    Addresses are interleaved across banks at ``interleave_bytes``
    granularity, matching row-buffer-free bank parallelism: two accesses
    to different banks overlap fully, two to the same bank serialize.
    """

    def __init__(self, name: str, n_banks: int,
                 interleave_bytes: int = 64) -> None:
        if n_banks <= 0:
            raise ConfigError(f"{name}: bank count must be positive, got {n_banks}")
        if interleave_bytes <= 0 or interleave_bytes & (interleave_bytes - 1):
            raise ConfigError(
                f"{name}: interleave must be a positive power of two, "
                f"got {interleave_bytes}"
            )
        self.name = name
        self.n_banks = n_banks
        self._banks: List[TimedResource] = [
            TimedResource(f"{name}.bank{i}") for i in range(n_banks)
        ]
        # Memoized index arithmetic for the per-access hot path
        # (interleave is a validated power of two; the bank count
        # usually is — fall back to a modulo when it is not).
        self._interleave_shift = interleave_bytes.bit_length() - 1
        self._bank_mask = (n_banks - 1
                           if (n_banks & (n_banks - 1)) == 0 else -1)

    def reserve(self, addr: int, now: float, service_ns: float) -> float:
        """Reserve the bank owning ``addr``; returns completion time."""
        mask = self._bank_mask
        block = addr >> self._interleave_shift
        bank = self._banks[block & mask if mask >= 0 else
                           block % self.n_banks]
        return bank.reserve(now, service_ns)


class OutstandingWindow:
    """A bounded pool of in-flight request completion times.

    Models structures that limit memory-level parallelism: the core's
    32-outstanding-request limit and the FAM's 128-outstanding limit
    (Table II).  ``admit`` retires entries that have finished, then
    blocks (in simulated time) until a slot is free.
    """

    def __init__(self, capacity: int, name: str = "window") -> None:
        if capacity <= 0:
            raise ConfigError(f"{name}: capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._completions: List[float] = []  # min-heap of completion times
        self.stall_time = 0.0

    def __len__(self) -> int:
        return len(self._completions)

    def admit(self, now: float) -> float:
        """Admit a new request, returning the (possibly delayed) time at
        which the request can actually issue.

        Requests that completed at or before ``now`` retire first.  If
        the window is still full, the request waits for the earliest
        outstanding completion.
        """
        heap = self._completions
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        issue = now
        while len(heap) >= self.capacity:
            earliest = heapq.heappop(heap)
            if earliest > issue:
                self.stall_time += earliest - issue
                issue = earliest
        return issue

    def record(self, completion_ns: float) -> None:
        """Record the completion time of an admitted request."""
        heapq.heappush(self._completions, completion_ns)

    def latest_completion(self) -> float:
        """Completion time of the last-finishing in-flight request."""
        return max(self._completions) if self._completions else 0.0
