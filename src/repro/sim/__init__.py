"""Deterministic simulation substrate.

This package contains the timing machinery shared by every architectural
component in the reproduction:

* :mod:`repro.sim.resource` — busy-until reservation resources (single
  server, banked, and bounded outstanding-request windows).  These model
  queueing at DRAM/NVM banks, fabric ports and miss-handling registers
  without a full event calendar per request.
* :mod:`repro.sim.stats` — the counter registry every component
  reports into.

All times in the library are expressed in **nanoseconds** as floats;
:attr:`repro.config.system.CoreConfig.cycle_ns` relates them to core
cycles.
"""

from repro.sim.resource import BankedResource, OutstandingWindow, TimedResource
from repro.sim.stats import Stats

__all__ = [
    "TimedResource",
    "BankedResource",
    "OutstandingWindow",
    "Stats",
]
