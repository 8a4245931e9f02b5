"""Execution provenance stamped on shard manifests.

The shard-manifest pipeline (:mod:`repro.experiments.shardfile`)
stamps each manifest with *who produced this, where, and from what
tree*: an operator debugging a fleet merge needs to know which host
and process produced a shard, and when.  This module is the single
definition of that record.

Everything here degrades gracefully: outside a git checkout the git
fields are ``None``, and a missing NumPy (impossible in this repo,
but the record format should not assume it) reports ``None`` rather
than crashing the caller that asked for provenance.
"""

from __future__ import annotations

import os
import platform
import socket
import subprocess
import time
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["PROVENANCE_FIELDS", "collect_provenance"]

#: Every key a provenance block carries, in one place so the tests
#: pin one contract.
PROVENANCE_FIELDS = (
    "hostname",
    "pid",
    "created_unix",
    "python",
    "numpy",
    "git_commit",
    "git_dirty",
)

_GIT_TIMEOUT_S = 5.0


def _run_git(args: Sequence[str], cwd: Optional[str]) -> Optional[str]:
    """One git query, or ``None`` when git/repo/permission is absent."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd or None, timeout=_GIT_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.decode("utf-8", "replace").strip()


def _git_state(cwd: Optional[str]) -> Tuple[Optional[str], Optional[bool]]:
    """``(commit hash, dirty flag)`` — both ``None`` outside a repo."""
    commit = _run_git(["rev-parse", "HEAD"], cwd)
    if not commit:
        return None, None
    status = _run_git(["status", "--porcelain"], cwd)
    return commit, None if status is None else bool(status)


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy ships with the repo
        return None
    return str(numpy.__version__)


def collect_provenance(cwd: Optional[str] = None) -> Dict[str, object]:
    """The provenance block for an artifact produced *right now, here*.

    ``cwd`` anchors the git queries (defaults to the process cwd): a
    caller inside the checkout records the commit it ran against,
    plus whether the tree was dirty.
    """
    commit, dirty = _git_state(cwd)
    return {
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "git_commit": commit,
        "git_dirty": dirty,
    }
