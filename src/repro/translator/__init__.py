"""The node-side FAM translator (Section III-C, Figures 6 and 7).

DeACT moves system-level translation *into* the node: a FAM-translator
unit in the memory controller consults a large FAM translation cache
resident in local DRAM (1 MB, four-way, four 104-bit entries per 64 B
row) and rewrites node physical addresses into FAM addresses before
they leave the node.  Because the node is untrusted, these cached
translations are *unverified* — the STU still checks access control on
every FAM access.

* :mod:`repro.translator.translation_cache` — the in-DRAM cache
  contents and geometry.
* :mod:`repro.translator.fam_translator` — the unit itself with its
  DRAM-access timing.

The outstanding mapping list of Figure 7c, which re-addresses FAM
responses to node addresses, is not modelled: the simulator resolves
each response in the call that issued its request, so the list would
never hold more than one entry and has no timing or result effect.
"""

from repro.translator.fam_translator import FamTranslator
from repro.translator.translation_cache import TranslationCache

__all__ = [
    "TranslationCache",
    "FamTranslator",
]
