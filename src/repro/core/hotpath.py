"""The ``@hot_path`` contract marker.

Functions on the per-event hot path must stay allocation-free: no
comprehensions, no ``dict``/``list``/``set`` literals or constructor
calls, no closures or nested defs, no f-strings (each of these
allocates per call, and the per-event loops run them hundreds of
thousands of times per simulated trace).  The contract is enforced
*statically* by the HOT001 check in ``tests/test_analysis.py``, which
reads the source of every function that is either

* decorated with :func:`hot_path`, or
* named ``*_fast`` (the repo's naming convention for allocation-free
  probe entry points).

The decorator is free at call time: it returns the function object
unchanged.  Only the source carries the mark.  Raise statements are
exempt from the contract — error paths may format f-strings because
they execute at most once per run.

Fill paths (:meth:`repro.cache.cache.SetAssociativeCache.fill_line`
and friends) are deliberately *not* marked: a fill returns its victim
as a tuple, and only runs on misses.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["hot_path"]

F = TypeVar("F", bound=Callable)


def hot_path(func: F) -> F:
    """Mark ``func`` as per-event hot-path code (see module docs).

    Zero runtime overhead: the function is returned unchanged.
    """
    return func
