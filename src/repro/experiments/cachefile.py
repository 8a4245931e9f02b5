"""Lock-safe access to the on-disk JSON result cache.

The cache is one JSON object mapping a structural run key (the
``repr`` of the runner's memo key) to a serialized
:class:`~repro.core.results.RunResult` dict.  Several processes may
finish sweep jobs against the same cache file concurrently — the
sweep engine in one terminal, a figure regeneration in another, shard
merges arriving from other hosts over a shared filesystem — so every
write goes through :func:`merge_into_cache`:

1. take an exclusive ``flock`` on a sidecar ``<cache>.lock`` file,
2. re-read the cache from disk (someone else may have flushed since
   we loaded it),
3. merge our entries over the on-disk state, refusing (or warning
   about) keys whose simulated outcome differs from what the disk
   already holds — same key + different payload signals
   nondeterminism or schema drift, never something to overwrite
   silently,
4. write to a collision-proof temporary file (``tempfile.mkstemp`` in
   the cache directory, so the name is unique even across hosts that
   happen to share a PID) and ``os.replace`` it into place (atomic on
   POSIX), then release the lock.

Cache files are written with sorted keys, so two caches holding the
same entries are byte-identical regardless of insertion order — the
property the sharded-sweep pipeline relies on to prove a merged shard
union equals an unsharded sweep.

Readers never need the lock: ``os.replace`` guarantees they see
either the old or the new complete file, and :func:`load_cache`
treats a truncated/corrupt file as empty rather than crashing.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import random
import socket
import tempfile
import time
from typing import Dict, List

from repro.errors import CacheLockTimeout, CacheMergeConflict

try:  # pragma: no cover - fcntl is always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["load_cache", "merge_into_cache", "cache_lock",
           "payloads_equivalent", "strip_telemetry",
           "write_cache_atomic", "write_json_atomic"]

logger = logging.getLogger(__name__)


def load_cache(path: str) -> Dict[str, dict]:
    """Read a result cache, tolerating absent or corrupt files.

    A truncated or garbage cache (killed process, disk-full partial
    write from a tool that bypassed the atomic path) is worth a
    warning, not a crash: the runs it memoized can always be redone.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return {}
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        logger.warning("ignoring unreadable result cache %s: %s", path, exc)
        return {}
    if not isinstance(data, dict):
        logger.warning("ignoring result cache %s: expected a JSON object, "
                       "got %s", path, type(data).__name__)
        return {}
    return data


#: Non-POSIX fallback tuning: how long to spin for the lock, and when
#: an existing lock file counts as leftover from a crashed process.
_LOCK_TIMEOUT_S = 30.0
_LOCK_STALE_S = 60.0

#: Lock-retry backoff: exponential from ``_BACKOFF_BASE_S`` capped at
#: ``_BACKOFF_CAP_S``, with seeded jitter so N waiters blocked on the
#: same holder don't retry in lockstep (a fixed 20ms spin makes every
#: waiter hammer the lock at the same instant the holder releases it).
_BACKOFF_BASE_S = 0.01
_BACKOFF_CAP_S = 0.25


def _lock_backoff_rng(lock_path: str) -> random.Random:
    """A per-(host, process, lock) seeded RNG for retry jitter.

    Seeding from identity rather than entropy keeps this module clean
    under DET001: the jitter desynchronizes *different* waiters — which
    differ in hostname or pid — while any single process's retry
    schedule stays reproducible.  The draws are never serialized.
    """
    return random.Random(
        f"{socket.gethostname()}:{os.getpid()}:{lock_path}")


def _backoff_sleep(rng: random.Random, attempt: int) -> None:
    base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** min(attempt, 16)))
    time.sleep(base * rng.uniform(0.5, 1.5))


def _holder_note(lock_path: str) -> str:
    """Who holds the lock, per the ``hostname:pid`` line the acquiring
    process wrote — best-effort, for the timeout message only."""
    try:
        with open(lock_path) as handle:
            holder = handle.readline().strip()
    except OSError:
        return ""
    return f"; lock file names holder {holder}" if holder else ""


def _write_holder(handle_or_fd) -> None:
    """Record our identity in the (held) lock file."""
    note = f"{socket.gethostname()}:{os.getpid()}\n"
    try:
        if isinstance(handle_or_fd, int):
            os.write(handle_or_fd, note.encode("utf-8"))
        else:
            handle_or_fd.seek(0)
            handle_or_fd.truncate()
            handle_or_fd.write(note)
            handle_or_fd.flush()
    except OSError:  # pragma: no cover - diagnostics only, never fatal
        pass


@contextlib.contextmanager
def cache_lock(path: str, timeout_s: float = _LOCK_TIMEOUT_S):
    """Hold an exclusive advisory lock for the cache at ``path``.

    Uses a sidecar ``<path>.lock`` file so the lock survives the
    ``os.replace`` of the cache file itself (locking the data file
    directly would lock an inode that the replace immediately
    orphans).  On POSIX the lock is ``flock``; elsewhere it falls back
    to an exclusive-create spin lock, which still serializes
    well-behaved writers.

    The fallback breaks a lock only when its mtime proves the holder
    crashed long ago (older than ``_LOCK_STALE_S``).  A *fresh* lock
    that outlives ``timeout_s`` raises :class:`CacheLockTimeout`
    instead: the holder is alive, and stealing its lock would let two
    writers race the same file.
    """
    lock_path = f"{path}.lock"
    deadline = time.monotonic() + timeout_s
    rng = _lock_backoff_rng(lock_path)
    attempt = 0
    if fcntl is not None:
        # Non-blocking flock in a deadline loop rather than a bare
        # LOCK_EX: the timeout contract must hold on POSIX too, or a
        # hung lock holder wedges every merger forever.  Open "a+" —
        # "w" would truncate the holder identity the current holder
        # wrote while it still owns the flock.
        with open(lock_path, "a+") as handle:
            while True:
                try:
                    fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() > deadline:
                        raise CacheLockTimeout(
                            f"timed out after {timeout_s:.1f}s waiting "
                            f"for cache lock {lock_path} (flock held by "
                            f"a live process{_holder_note(lock_path)})")
                    _backoff_sleep(rng, attempt)
                    attempt += 1
            _write_holder(handle)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        return
    while True:
        try:
            fd = os.open(lock_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            _write_holder(fd)
            break
        except FileExistsError:
            try:
                # Lock staleness vs. an on-disk mtime must use the wall
                # clock; the age is never serialized.
                # deact: allow(DET001)
                age = time.time() - os.path.getmtime(lock_path)
            except OSError:  # holder just released it; retry at once
                continue
            if age > _LOCK_STALE_S:
                logger.warning("breaking stale cache lock %s "
                               "(age %.0fs)", lock_path, age)
                try:
                    os.unlink(lock_path)
                except OSError:
                    pass
                continue
            if time.monotonic() > deadline:
                raise CacheLockTimeout(
                    f"timed out after {timeout_s:.1f}s waiting for cache "
                    f"lock {lock_path} (held by a live process for "
                    f"{age:.1f}s{_holder_note(lock_path)}; remove it "
                    f"only if that process is gone)")
            _backoff_sleep(rng, attempt)
            attempt += 1
    try:
        yield
    finally:
        os.close(fd)
        try:
            os.unlink(lock_path)
        except OSError:  # pragma: no cover - someone broke our lock
            pass


def strip_telemetry(payload):
    """A payload reduced to its simulated outcome.

    The single definition of "what counts as the outcome": telemetry
    (wall time, events/sec, probe counts) is measurement metadata of
    one particular execution that two hosts legitimately disagree on.
    Both the merge-conflict comparison and the shard bit-identity
    check (:func:`~repro.experiments.shardfile.canonical_cache_text`)
    strip through here, so they can never drift apart.
    """
    if not isinstance(payload, dict):
        return payload
    return {k: v for k, v in payload.items() if k != "telemetry"}


def payloads_equivalent(ours: dict, theirs: dict) -> bool:
    """Whether two cache payloads describe the same simulated outcome
    (telemetry excluded, see :func:`strip_telemetry`)."""
    if ours == theirs:
        return True
    if not isinstance(ours, dict) or not isinstance(theirs, dict):
        return False
    return strip_telemetry(ours) == strip_telemetry(theirs)


def write_json_atomic(path: str, obj: object,
                      **dump_kwargs: object) -> None:
    """Atomically replace the JSON file at ``path`` with ``obj``.

    The one crash-safe write path for everything the experiment
    harness persists (caches, shard manifests).  The temporary file
    comes from ``tempfile.mkstemp`` in the target's own directory
    (same filesystem, so ``os.replace`` stays atomic) with the
    hostname in the prefix: PID-based names collide across hosts
    sharing a filesystem, mkstemp's random suffix cannot.

    Serializing to text before opening the temp file means a crash at
    *any* byte of the write leaves only a dead ``.tmp.`` file behind —
    never a half-written ``path`` — which the torn-write property
    suite verifies offset by offset, killing a child process inside
    this function's ``write`` and around its ``os.replace``.
    """
    text = json.dumps(obj, **dump_kwargs)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    prefix = f"{os.path.basename(path)}.tmp.{socket.gethostname()}."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix)
    try:
        # mkstemp creates 0600; widen to the umask-honoring mode a
        # plain open() would have used, or other-uid readers on a
        # shared filesystem (the cross-host merge scenario) get
        # PermissionError on the replaced file.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_cache_atomic(path: str, entries: Dict[str, dict]) -> None:
    """Atomically replace the cache at ``path`` with ``entries``.

    Sorted keys make cache bytes a function of contents, not write
    order — the property the sharded-sweep bit-identity check relies
    on.
    """
    write_json_atomic(path, entries, sort_keys=True)


def merge_into_cache(path: str, entries: Dict[str, dict],
                     strict: bool = False,
                     timeout_s: float = _LOCK_TIMEOUT_S,
                     keep_existing: bool = False) -> Dict[str, dict]:
    """Merge ``entries`` into the cache at ``path`` under the lock.

    A key already on disk with a *different* payload (telemetry aside,
    see :func:`payloads_equivalent`) is a merge conflict: it means two
    supposedly deterministic executions of the same job disagreed.
    By default the conflict is logged as a warning and the incoming
    payload wins; under ``strict=True`` (the ``deact cache merge``
    path) it raises :class:`CacheMergeConflict` before touching disk;
    with ``keep_existing=True`` (the *forced* shard merge, whose
    precedence is first-payload-wins) the on-disk payload is kept
    instead.  The conflict decision happens under the lock, so a
    concurrent writer's fresh entries cannot slip between a read and
    the merge.

    Returns the full merged mapping so callers can refresh their
    in-memory view with results other processes contributed.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with cache_lock(path, timeout_s=timeout_s):
        merged = load_cache(path)
        conflicts: List[str] = [
            key for key, payload in entries.items()
            if key in merged
            and not payloads_equivalent(merged[key], payload)]
        if conflicts:
            detail = (f"{len(conflicts)} cache key(s) map to different "
                      f"payloads (nondeterminism or schema drift?); "
                      f"first: {conflicts[0]}")
            if strict:
                raise CacheMergeConflict(
                    f"refusing to merge into {path}: {detail}",
                    keys=conflicts)
            if keep_existing:
                logger.warning("keeping existing entries of %s over "
                               "conflicting incoming ones: %s",
                               path, detail)
                skip = set(conflicts)
                entries = {key: payload
                           for key, payload in entries.items()
                           if key not in skip}
            else:
                logger.warning("overwriting conflicting entries in "
                               "%s: %s", path, detail)
        merged.update(entries)
        write_cache_atomic(path, merged)
    return merged
