"""Torn-write property suite: kill the cache writer at every byte.

The atomic write path (`tempfile.mkstemp` + `os.replace`) promises
that a writer dying at *any* instant leaves readers a complete cache —
the old one or the new one, never a hybrid.  This suite proves it by
brute force: for every byte offset of the serialized text (plus the
write-complete-but-not-renamed and just-after-rename instants), a real
child process patches its own ``os.fdopen`` / ``os.replace``, attempts
the write, and dies there with ``os._exit`` — no interpreter cleanup,
exactly like a kill -9 — after which the parent asserts the on-disk
state.
"""

import json
import multiprocessing
import os

import pytest

from repro.experiments.cachefile import load_cache, write_cache_atomic

OLD = {"cell-a": {"value": 1}, "cell-b": {"value": 2}}
NEW = {"cell-a": {"value": 1}, "cell-b": {"value": 2},
       "cell-c": {"value": 3}}

#: What the new cache serializes to — offsets sweep over this text.
NEW_TEXT = json.dumps(NEW, sort_keys=True)
CRASH = 13


def _torn_writer(path: str, entries: dict, cut: int) -> None:
    """Child body: die at byte ``cut`` of an atomic write of ``NEW``;
    at ``len(NEW_TEXT) + 1`` before ``os.replace``, later just after."""
    fdopen, replace = os.fdopen, os.replace

    def torn_fdopen(fd, mode):
        handle = fdopen(fd, mode)
        write = handle.write

        def torn_write(text):
            write(text[:cut])
            if cut <= len(text):
                handle.flush()
                os._exit(CRASH)
        handle.write = torn_write
        return handle

    def torn_replace(src, dst):
        if cut > len(NEW_TEXT) + 1:
            replace(src, dst)
        os._exit(CRASH)

    os.fdopen, os.replace = torn_fdopen, torn_replace
    write_cache_atomic(path, entries)
    os._exit(0)  # pragma: no cover - every cut dies first


def _die_at(path: str, cut: int) -> int:
    context = multiprocessing.get_context("fork")
    proc = context.Process(target=_torn_writer,
                           args=(path, NEW, cut))
    proc.start()
    proc.join(timeout=30.0)
    assert proc.exitcode is not None, f"writer hung at cut={cut}"
    return proc.exitcode


class TestTornWrites:
    @pytest.mark.parametrize("cut", range(len(NEW_TEXT) + 1))
    def test_death_mid_tmp_write_preserves_old_cache(self, tmp_path, cut):
        path = str(tmp_path / "cache.json")
        write_cache_atomic(path, OLD)
        assert _die_at(path, cut) == CRASH
        # Reader sees the complete old cache; the torn bytes live only
        # in a dead .tmp. file.
        assert json.load(open(path)) == OLD
        assert load_cache(path) == OLD

    def test_death_before_replace_preserves_old_cache(self, tmp_path):
        path = str(tmp_path / "cache.json")
        write_cache_atomic(path, OLD)
        assert _die_at(path, len(NEW_TEXT) + 1) == CRASH
        assert json.load(open(path)) == OLD
        # The fully-written-but-unrenamed temp file is left behind —
        # exactly the debris `deact cache validate --repair` sweeps.
        debris = [name for name in os.listdir(tmp_path)
                  if ".tmp." in name]
        assert debris

    def test_death_after_replace_lands_new_cache(self, tmp_path):
        path = str(tmp_path / "cache.json")
        write_cache_atomic(path, OLD)
        assert _die_at(path, len(NEW_TEXT) + 2) == CRASH
        assert json.load(open(path)) == OLD | NEW

    def test_death_with_no_prior_cache_leaves_nothing_or_new(self,
                                                             tmp_path):
        path = str(tmp_path / "fresh.json")
        assert _die_at(path, 3) == CRASH
        assert not os.path.exists(path)
        assert load_cache(path) == {}

    def test_every_offset_reader_never_sees_hybrid(self, tmp_path):
        # The one-assertion statement of the property, across the whole
        # tmp+rename sequence: old or new, never anything else.
        path = str(tmp_path / "cache.json")
        for cut in range(len(NEW_TEXT) + 3):
            write_cache_atomic(path, OLD)
            _die_at(path, cut)
            on_disk = json.load(open(path))
            assert on_disk in (OLD, OLD | NEW), \
                f"hybrid cache after death at byte {cut}: {on_disk}"

