"""Shard caches, manifests, and the merge/validate pipeline.

A sweep partitioned across hosts (``deact sweep --shard I/N``) writes
one *shard cache* per host next to the canonical cache, plus a
*manifest* recording exactly what that shard covered:

    results.json                        canonical (deact cache merge)
    results.shard-1-of-2.json           shard cache, host A
    results.shard-1-of-2.manifest.json  manifest, host A
    results.shard-2-of-2.json           shard cache, host B
    results.shard-2-of-2.manifest.json  manifest, host B

The manifest pins the **spec fingerprint** — an order-independent
SHA-256 over every cache key the *full* spec expands to (see
:func:`~repro.experiments.runner.fingerprint_keys`) — so a merge can
refuse shards produced from different specs or trace-scale settings,
and :func:`validate_cache` can prove a merged cache covers a spec
exactly (no missing cells, no orphan keys, matching fingerprints).

Merging is conflict-aware end to end: the same key arriving from two
shards (or already on disk) with a different simulated outcome is an
error under strict mode, never a silent overwrite — deterministic
jobs that disagree signal nondeterminism, schema drift between hosts,
or a mislabeled shard file.  Because caches are written with sorted
keys, a successful merge is byte-identical to the cache an unsharded
sweep of the same spec would have written (telemetry — wall-clock
measurement metadata — aside; :func:`canonical_cache_text` is the
comparison the determinism suite and CI use).
"""

from __future__ import annotations

import dataclasses
import glob
import json
import logging
import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CacheError, CacheMergeConflict
from repro.experiments.cachefile import (
    cache_lock,
    load_cache,
    merge_into_cache,
    payloads_equivalent,
    strip_telemetry,
    write_cache_atomic,
    write_json_atomic,
)
from repro.experiments.provenance import collect_provenance
from repro.experiments.runner import fingerprint_keys, job_key, payload_ok

__all__ = [
    "MANIFEST_SCHEMA",
    "RepairReport",
    "ShardManifest",
    "ValidationReport",
    "build_manifest",
    "canonical_cache_text",
    "discover_manifests",
    "discover_shards",
    "load_manifest",
    "manifest_path",
    "merge_shards",
    "quarantine_path",
    "repair_cache",
    "shard_cache_path",
    "spec_fingerprint",
    "validate_cache",
    "write_manifest",
]

logger = logging.getLogger(__name__)

MANIFEST_SCHEMA = 1

_SHARD_STEM_RE = re.compile(r"\.shard-(\d+)-of-(\d+)$")


# ----------------------------------------------------------------------
# Path conventions
# ----------------------------------------------------------------------
def shard_cache_path(base: str, index: int, count: int) -> str:
    """``results.json`` + shard 1/2 -> ``results.shard-1-of-2.json``."""
    root, ext = os.path.splitext(base)
    return f"{root}.shard-{index}-of-{count}{ext or '.json'}"


def manifest_path(cache_path: str) -> str:
    """The manifest sitting next to a (shard) cache file."""
    root, ext = os.path.splitext(cache_path)
    return f"{root}.manifest{ext or '.json'}"


def discover_shards(base: str) -> List[str]:
    """Shard caches named for the canonical cache at ``base``.

    Matches the :func:`shard_cache_path` convention, skips the
    manifests that share the prefix, and sorts **numerically** by
    (count, index): lexicographic order would visit shard 10 before
    shard 2, breaking the first-seen-wins precedence the forced merge
    documents.
    """
    root, ext = os.path.splitext(base)
    found = []
    for path in glob.glob(
            f"{glob.escape(root)}.shard-*-of-*{ext or '.json'}"):
        match = _SHARD_STEM_RE.search(os.path.splitext(path)[0])
        if match:
            found.append((int(match.group(2)), int(match.group(1)), path))
    return [path for _count, _index, path in sorted(found)]


def discover_manifests(base: str) -> List[str]:
    """Shard manifests named for the canonical cache at ``base``."""
    return [manifest_path(path) for path in discover_shards(base)
            if os.path.exists(manifest_path(path))]


# ----------------------------------------------------------------------
# Fingerprints and manifests
# ----------------------------------------------------------------------
def spec_fingerprint(spec, settings) -> str:
    """Fingerprint of every cache key a spec expands to.

    Identical across hosts, shard assignments, and cell orderings;
    different for any change to benchmarks, architectures, variants,
    or trace-scale settings.
    """
    return fingerprint_keys(
        job_key(job) for _cell, job in spec.jobs(settings))


@dataclasses.dataclass(frozen=True)
class ShardManifest:
    """What one shard run covered, and of which sweep.

    ``fingerprint``/``cell_keys`` are the load-bearing fields the
    merge/validate pipeline checks; host, pid, and timestamp are
    provenance for the operator debugging a fleet run.
    """

    fingerprint: str
    index: int
    count: int
    cell_keys: Tuple[str, ...]
    cells: Tuple[Tuple[str, str, str], ...]
    total_cells: int
    settings: Dict[str, float]
    hostname: str
    pid: int
    created_unix: float
    schema: int = MANIFEST_SCHEMA


def build_manifest(spec, settings, index: int, count: int,
                   cells=None) -> ShardManifest:
    """Manifest for shard ``index``/``count`` of ``spec`` (pure: no
    simulation).  ``cells`` takes an already-expanded ``spec.jobs``
    list so a caller that has one (the sweep engine) avoids a second
    full variant-config expansion."""
    all_cells = spec.jobs(settings) if cells is None else cells
    covered = spec.shard(index, count, settings, cells=all_cells)
    # Provenance comes from the shared collector; the manifest keeps
    # its original field subset for schema stability.
    provenance = collect_provenance()
    return ShardManifest(
        fingerprint=fingerprint_keys(
            job_key(job) for _cell, job in all_cells),
        index=index,
        count=count,
        cell_keys=tuple(sorted({job_key(job) for _cell, job in covered})),
        cells=tuple(cell for cell, _job in covered),
        total_cells=len(all_cells),
        settings={"n_events": settings.n_events,
                  "footprint_scale": settings.footprint_scale,
                  "seed": settings.seed},
        hostname=provenance["hostname"],
        pid=provenance["pid"],
        created_unix=provenance["created_unix"],
    )


def write_manifest(path: str, manifest: ShardManifest) -> str:
    """Write a manifest as pretty JSON (it is operator-facing).

    Atomic like every cache write: the manifest is the shard's
    integrity record, so a host killed mid-write must leave either no
    manifest or a complete one, never truncated JSON for the merge
    host to choke on.
    """
    write_json_atomic(path, dataclasses.asdict(manifest),
                      sort_keys=True, indent=2)
    return path


def load_manifest(path: str) -> ShardManifest:
    """Load and structurally validate a shard manifest.

    Unlike :func:`load_cache`, a bad manifest raises
    :class:`CacheError`: the manifest is the integrity record — if it
    cannot be trusted, the merge/validate pipeline must stop, not
    degrade.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CacheError(f"unreadable shard manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CacheError(f"shard manifest {path} is not a JSON object")
    if data.get("schema") != MANIFEST_SCHEMA:
        raise CacheError(
            f"shard manifest {path} has schema {data.get('schema')!r}, "
            f"expected {MANIFEST_SCHEMA}")
    try:
        return ShardManifest(
            fingerprint=data["fingerprint"],
            index=int(data["index"]),
            count=int(data["count"]),
            cell_keys=tuple(data["cell_keys"]),
            cells=tuple(tuple(cell) for cell in data["cells"]),
            total_cells=int(data["total_cells"]),
            settings=dict(data["settings"]),
            hostname=data.get("hostname", ""),
            pid=int(data.get("pid", 0)),
            created_unix=float(data.get("created_unix", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(
            f"shard manifest {path} is missing or mistypes a required "
            f"field: {exc}") from exc


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_shards(target: str, shard_paths: Optional[Sequence[str]] = None,
                 strict: bool = True,
                 expected_fingerprint: Optional[str] = None,
                 ) -> Tuple[Dict[str, dict], Dict[str, ShardManifest],
                            List[str]]:
    """Merge shard caches into the canonical cache at ``target``.

    ``shard_paths`` defaults to :func:`discover_shards`.  Before any
    disk write, the shards are cross-checked:

    * every shard cache must carry a readable manifest (the sweep
      engine always writes one; a shard without one is a stray or
      mislabeled file), and all manifests must agree on one spec
      fingerprint, which must also equal ``expected_fingerprint``
      when given;
    * every key a manifest claims must actually be in its shard cache
      (a missing key means the shard run died between cache write and
      manifest write, or the files were mixed up);
    * the shard set must be complete and consistently partitioned:
      one shard count across all manifests, with every index 1..N
      present — merging half a sweep must not exit 0;
    * the same key arriving twice — from two shards, or from a shard
      and the canonical cache on disk — with different simulated
      outcomes is a conflict.

    Under ``strict`` (the ``deact cache merge`` default) any of these
    raises :class:`CacheError`/:class:`CacheMergeConflict`; otherwise
    they are logged and the first-seen payload wins (spec order
    across shards, and what the canonical cache already held beats
    incoming shards).

    Returns ``(merged mapping, manifests by shard path, the shard
    paths that were merged)``.
    """
    paths = list(shard_paths) if shard_paths else discover_shards(target)
    if not paths:
        root, ext = os.path.splitext(target)
        raise CacheError(
            f"no shard caches to merge into {target} (looked for "
            f"{root}.shard-*-of-*{ext or '.json'})")
    manifests: Dict[str, ShardManifest] = {}
    combined: Dict[str, dict] = {}
    origin: Dict[str, str] = {}
    conflicts: List[Tuple[str, str, str]] = []  # key, first shard, other
    for path in paths:
        entries = load_cache(path)
        mpath = manifest_path(path)
        manifest = None
        if not os.path.exists(mpath):
            # The sweep engine always writes a manifest, so its
            # absence means a stray/mislabeled/foreign shard file —
            # exactly what the fingerprint check exists to catch.
            message = (f"shard cache {path} has no manifest ({mpath}); "
                       f"cannot verify it belongs to this sweep")
            if strict:
                raise CacheError(message)
            logger.warning(message)
        else:
            try:
                manifest = load_manifest(mpath)
            except CacheError:
                if strict:
                    raise
                logger.warning("ignoring unreadable shard manifest %s",
                               mpath)
        if manifest is not None:
            manifests[path] = manifest
            claimed_missing = [key for key in manifest.cell_keys
                               if key not in entries]
            if claimed_missing:
                message = (f"shard cache {path} is missing "
                           f"{len(claimed_missing)} key(s) its "
                           f"manifest claims (incomplete shard run?)")
                if strict:
                    raise CacheError(message)
                logger.warning(message)
        if not entries and manifest is None:
            # A zero-cell shard (stride past the cell count) is
            # legitimate when its manifest says so, and an empty
            # cache whose manifest claims keys was already diagnosed
            # above; only a manifest-less empty (unreadable file, or
            # forced merge of a bare empty shard) is left to flag.
            message = f"shard cache {path} is empty or unreadable"
            if strict:
                raise CacheError(message)
            logger.warning(message)
        for key, payload in entries.items():
            if key in combined:
                if not payloads_equivalent(combined[key], payload):
                    conflicts.append((key, origin[key], path))
                continue
            combined[key] = payload
            origin[key] = path
    # Completeness of the shard set: the manifests say how the sweep
    # was partitioned (count) and which partitions are here (index) —
    # merging 1 of 2 shards must not exit 0 with half the sweep
    # silently missing.  (The fingerprint alone cannot catch this:
    # a 2-way and a 3-way sharding of the same spec share it.)
    counts = {m.count for m in manifests.values()}
    if len(counts) > 1:
        message = (f"shards were partitioned differently (counts "
                   f"{sorted(counts)}): stale files from a previous "
                   f"sharding?")
        if strict:
            raise CacheError(message)
        logger.warning(message)
    elif counts:
        count = counts.pop()
        absent = sorted(set(range(1, count + 1))
                        - {m.index for m in manifests.values()})
        if absent:
            message = (f"shard set is incomplete: missing shard(s) "
                       f"{'/'.join(str(i) for i in absent)} of {count}")
            if strict:
                raise CacheError(message)
            logger.warning(message)
    fingerprints = {m.fingerprint for m in manifests.values()}
    if expected_fingerprint is not None:
        fingerprints.add(expected_fingerprint)
    if len(fingerprints) > 1:
        detail = (f"shards disagree on the spec fingerprint "
                  f"({', '.join(sorted(f[:12] for f in fingerprints))}...):"
                  f" they were produced from different sweep specs or "
                  f"settings")
        if strict:
            raise CacheMergeConflict(detail)
        logger.warning("%s", detail)
    if conflicts:
        key, first, other = conflicts[0]
        detail = (f"{len(conflicts)} key(s) have different payloads "
                  f"across shards (nondeterminism or schema drift?); "
                  f"first: {key} differs between {first} and {other}")
        if strict:
            raise CacheMergeConflict(
                f"refusing to merge shards into {target}: {detail}",
                keys=[key for key, _first, _other in conflicts])
        logger.warning("%s", detail)
    # First-seen payload wins everywhere under a forced merge: what
    # the canonical cache already holds predates the incoming shards,
    # so keep_existing makes the locked merge keep it (deciding under
    # the lock, so a concurrent writer cannot slip a fresh entry in
    # between a pre-read and the merge).  Strict mode raises on any
    # disk conflict instead.
    merged = merge_into_cache(target, combined, strict=strict,
                              keep_existing=not strict)
    return merged, manifests, paths


# ----------------------------------------------------------------------
# Validate
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ValidationReport:
    """Outcome of validating a cache against a sweep spec."""

    cache_path: str
    fingerprint: str
    expected_cells: int
    present_cells: int
    missing: Tuple[Tuple[Tuple[str, str, str], str], ...]
    orphan_keys: Tuple[str, ...]
    manifest_fingerprints: Dict[str, str]

    @property
    def fingerprint_ok(self) -> bool:
        return all(fp == self.fingerprint
                   for fp in self.manifest_fingerprints.values())

    @property
    def ok(self) -> bool:
        """Complete coverage and consistent fingerprints.

        Orphan keys do not fail validation by themselves: a canonical
        cache legitimately accumulates several sweeps' results.  The
        CLI's ``--strict`` flag promotes them to failures (see
        :meth:`passes`).
        """
        return self.passes(strict=False)

    def passes(self, strict: bool = False) -> bool:
        return (not self.missing and self.fingerprint_ok
                and not (strict and self.orphan_keys))

    def render(self, strict: bool = False) -> str:
        """Human-readable report; pass the same ``strict`` used for
        the pass/fail decision so the verdict line agrees with it."""
        lines = [f"cache     : {self.cache_path}",
                 f"spec      : {self.expected_cells} cells, fingerprint "
                 f"{self.fingerprint[:12]}...",
                 f"coverage  : {self.present_cells}/{self.expected_cells} "
                 f"cells present"]
        for cell, _key in self.missing[:10]:
            lines.append(f"  missing : {'/'.join(cell)}")
        if len(self.missing) > 10:
            lines.append(f"  missing : ... and {len(self.missing) - 10} more")
        lines.append(f"orphans   : {len(self.orphan_keys)} key(s) outside "
                     f"the spec"
                     + (" (fatal under --strict)"
                        if strict and self.orphan_keys else ""))
        for path, fp in sorted(self.manifest_fingerprints.items()):
            mark = "ok" if fp == self.fingerprint else "MISMATCH"
            lines.append(f"manifest  : {os.path.basename(path)} "
                         f"fingerprint {fp[:12]}... {mark}")
        lines.append(f"verdict   : {'OK' if self.passes(strict) else 'FAIL'}")
        return "\n".join(lines)


def validate_cache(cache_path: str, spec, settings,
                   manifest_paths: Optional[Sequence[str]] = None,
                   ) -> ValidationReport:
    """Check a cache against the spec that should have produced it.

    Reports missing cells (spec cells with no cache entry), orphan
    keys (cache entries no spec cell produces), and — for every shard
    manifest found next to the cache, or passed explicitly — whether
    its recorded fingerprint matches the spec's.
    """
    entries = load_cache(cache_path)
    expected: Dict[str, Tuple[str, str, str]] = {}
    for cell, job in spec.jobs(settings):
        expected.setdefault(job_key(job), cell)
    missing = tuple((cell, key) for key, cell in expected.items()
                    if key not in entries)
    orphans = tuple(sorted(key for key in entries if key not in expected))
    if manifest_paths is None:
        manifest_paths = discover_manifests(cache_path)
        own = manifest_path(cache_path)
        if os.path.exists(own):  # validating a shard cache directly
            manifest_paths = [own] + list(manifest_paths)
    manifest_fps = {path: load_manifest(path).fingerprint
                    for path in manifest_paths}
    return ValidationReport(
        cache_path=cache_path,
        fingerprint=fingerprint_keys(expected),
        expected_cells=len(expected),
        present_cells=len(expected) - len(missing),
        missing=missing,
        orphan_keys=orphans,
        manifest_fingerprints=manifest_fps,
    )


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def quarantine_path(cache_path: str) -> str:
    """The quarantine sidecar next to a cache file."""
    root, ext = os.path.splitext(cache_path)
    return f"{root}.quarantine{ext or '.json'}"


@dataclasses.dataclass
class RepairReport:
    """Outcome of ``deact cache validate --repair``."""

    cache_path: str
    quarantined_corrupt: Tuple[str, ...]
    quarantined_orphans: Tuple[str, ...]
    removed_tmp_files: Tuple[str, ...]
    manifestless_shards: Tuple[str, ...]
    missing_cells: int

    def render(self) -> str:
        lines = [f"repair    : {self.cache_path}"]
        lines.append(f"corrupt   : {len(self.quarantined_corrupt)} "
                     f"cell(s) quarantined")
        for key in self.quarantined_corrupt[:5]:
            lines.append(f"  corrupt : {key}")
        lines.append(f"orphans   : {len(self.quarantined_orphans)} "
                     f"cell(s) quarantined")
        for key in self.quarantined_orphans[:5]:
            lines.append(f"  orphan  : {key}")
        if self.quarantined_corrupt or self.quarantined_orphans:
            lines.append(f"moved to  : "
                         f"{quarantine_path(self.cache_path)}")
        lines.append(f"tmp files : {len(self.removed_tmp_files)} dead "
                     f"temp file(s) removed")
        for path in self.removed_tmp_files[:5]:
            lines.append(f"  removed : {os.path.basename(path)}")
        for shard in self.manifestless_shards:
            lines.append(f"re-run    : shard {os.path.basename(shard)} "
                         f"has no manifest — its host never finished; "
                         f"re-run that shard")
        lines.append(f"missing   : {self.missing_cells} cell(s) still "
                     f"need (re-)simulation")
        return "\n".join(lines)


def repair_cache(cache_path: str, spec, settings) -> RepairReport:
    """Quarantine bad cells and clean write debris, under the lock.

    Three classes of damage a crashed or faulty sweep leaves behind:

    * **corrupt cells** — entries that are not structurally valid
      serialized results (a worker died mid-nonsense, or a tool
      bypassed the atomic writer).  Moved to the ``.quarantine``
      sidecar so the evidence survives while the cache heals;
    * **orphan cells** — keys no cell of ``spec`` produces (stale
      settings, a mislabeled shard).  Also quarantined: unlike plain
      ``validate`` (where orphans are tolerated as other sweeps'
      results), ``--repair`` is an explicit request to make the cache
      match *this* spec;
    * **dead temp files** — ``.tmp.`` leftovers of writers killed
      mid-write, for the cache and every shard cache next to it.
      Holding the cache lock guarantees no well-behaved local writer
      is mid-replace while we sweep them up.

    Shard caches with no manifest are *flagged* (their host died
    before finishing — the shard must be re-run), never deleted: the
    completed cells they hold are still mergeable.

    Quarantined payloads merge into any existing quarantine sidecar
    (last writer wins per key) so repeated repairs never lose
    evidence.  Missing cells are counted, not fixed — re-running the
    sweep recalls everything healthy and simulates only the holes.
    """
    expected: Dict[str, Tuple[str, str, str]] = {}
    for cell, job in spec.jobs(settings):
        expected.setdefault(job_key(job), cell)
    with cache_lock(cache_path):
        entries = load_cache(cache_path)
        corrupt = tuple(sorted(
            key for key, payload in entries.items()
            if not payload_ok(payload)))
        orphans = tuple(sorted(
            key for key in entries
            if key not in expected and key not in corrupt))
        bad = set(corrupt) | set(orphans)
        if bad:
            side = quarantine_path(cache_path)
            quarantined = load_cache(side)
            quarantined.update(
                {key: entries[key] for key in sorted(bad)})
            write_cache_atomic(side, quarantined)
            entries = {key: payload for key, payload in entries.items()
                       if key not in bad}
            write_cache_atomic(cache_path, entries)
        removed = []
        targets = [cache_path] + discover_shards(cache_path)
        for target in targets:
            directory = os.path.dirname(os.path.abspath(target))
            pattern = f"{glob.escape(os.path.basename(target))}.tmp.*"
            for tmp in sorted(glob.glob(os.path.join(directory,
                                                     pattern))):
                try:
                    os.unlink(tmp)
                except OSError:  # pragma: no cover - racing cleanup
                    continue
                removed.append(tmp)
        manifestless = tuple(
            shard for shard in discover_shards(cache_path)
            if not os.path.exists(manifest_path(shard)))
        missing = sum(1 for key in expected if key not in entries)
    return RepairReport(
        cache_path=cache_path,
        quarantined_corrupt=corrupt,
        quarantined_orphans=orphans,
        removed_tmp_files=tuple(removed),
        manifestless_shards=manifestless,
        missing_cells=missing,
    )


# ----------------------------------------------------------------------
# Canonical comparison
# ----------------------------------------------------------------------
def canonical_cache_text(path: str) -> str:
    """A cache's *simulated outcome* as canonical JSON text.

    Telemetry — per-execution wall-clock measurement metadata — is
    stripped and keys are sorted, so two caches holding identical
    simulated results render identical text even when they were
    produced by different hosts in different orders.  This is the
    bit-identity comparison between a merged shard union and the
    unsharded sweep (used by the determinism suite and the CI step).
    """
    entries = load_cache(path)
    return json.dumps({key: strip_telemetry(payload)
                       for key, payload in entries.items()},
                      sort_keys=True)
