"""Memory device models and the request taxonomy.

* :mod:`repro.mem.request` — the paper's traffic classification (data
  vs address-translation vs ACM traffic).
* :mod:`repro.mem.device` — banked busy-until DRAM and NVM devices
  with Table II latencies and outstanding-request limits.
"""

from repro.mem.request import RequestKind
from repro.mem.device import DramDevice, NvmDevice

__all__ = ["RequestKind", "DramDevice", "NvmDevice"]
