"""Exception hierarchy for the DeACT reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration problems from simulated
protocol-level faults (which model real hardware/firmware conditions such
as access-control violations).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "AllocationError",
    "TranslationFault",
    "AccessViolationError",
    "ProtocolError",
    "TraceError",
    "CacheError",
    "CacheLockTimeout",
    "CacheMergeConflict",
    "SweepFailure",
    "SweepInterrupted",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A system configuration is structurally invalid or inconsistent.

    Raised eagerly at configuration-validation time (not mid-simulation)
    so that a bad parameter sweep fails before burning simulation time.
    """


class AllocationError(ReproError):
    """The memory broker or a node allocator ran out of frames.

    This models a real out-of-memory condition in the FAM pool or in the
    node-local DRAM zone; it is not an internal bug.
    """


class TranslationFault(ReproError):
    """An address could not be translated.

    Models a page fault that the simulated OS cannot satisfy: e.g. a node
    physical address with no entry in the system-level (FAM) page table.
    """


class AccessViolationError(ReproError):
    """Access-control verification rejected a FAM access.

    Raised by the STU verification unit when a node presents a FAM
    address whose access-control metadata names a different owner or
    denies the requested permission.  In hardware this would be a fatal
    bus error / machine-check reported to the memory broker.
    """

    def __init__(self, message: str, node_id: int | None = None,
                 fam_addr: int | None = None) -> None:
        super().__init__(message)
        self.node_id = node_id
        self.fam_addr = fam_addr


class ProtocolError(ReproError):
    """A component received a request that violates the fabric protocol.

    Examples: a verified (``V=1``) packet arriving at a unit that cannot
    verify, or a FAM access on a node missing its STU or translator.
    """


class TraceError(ReproError):
    """A workload trace is malformed or a generator was misconfigured."""


class CacheError(ReproError):
    """The on-disk result cache could not be read, locked, or merged."""


class CacheLockTimeout(CacheError):
    """Timed out waiting for a cache lock held by a live process.

    Raised instead of breaking the lock: a live holder past the
    deadline means contention (or a very slow writer), not a crash, and
    stealing the lock would let two writers race the same cache file.
    """


class CacheMergeConflict(CacheError):
    """A cache merge found one run key bound to different payloads.

    Two runs of the same job must serialize identically (telemetry
    aside); a conflict therefore signals nondeterminism, schema drift
    between hosts, or a mislabeled shard — never a condition to paper
    over with a silent overwrite.
    """

    def __init__(self, message: str, keys: tuple = ()) -> None:
        super().__init__(message)
        self.keys = tuple(keys)


class SweepFailure(ReproError):
    """One or more sweep jobs failed permanently after retries.

    Carries the supervisor's structured ``FailureReport`` plus every
    payload completed before the abort (``payloads``, keyed by job
    index), so a fail-fast caller can still salvage finished cells to
    the cache instead of losing the whole batch.
    """

    def __init__(self, message: str, report: object = None,
                 payloads: dict | None = None) -> None:
        super().__init__(message)
        self.report = report
        self.payloads = dict(payloads or {})


class SweepInterrupted(ReproError):
    """A sweep was interrupted (Ctrl-C / SIGTERM) before completing.

    The supervisor terminates its workers, then raises this carrying
    every completed payload (``payloads``, keyed by job index) so the
    runner can flush finished work to the on-disk cache before the
    interrupt propagates — an interrupted sweep must lose at most the
    in-flight jobs, never the completed batch.
    """

    def __init__(self, message: str, payloads: dict | None = None) -> None:
        super().__init__(message)
        self.payloads = dict(payloads or {})
