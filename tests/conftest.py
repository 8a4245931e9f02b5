"""The ``faults`` fixture: fault injection by patching production code.

``repro`` has no fault hooks.  The fixture patches
``repro.experiments.supervisor.execute_job``, which the in-process
path calls and which pool workers, forked on Linux, inherit; the
failure paths under test are exactly the production ones.
"""

import hashlib
import os
import time

import pytest

from repro.experiments import supervisor
from repro.experiments.runner import job_key


class Faults:
    """Rules ``(kind, match, attempts)``, tried in order: a rule fails
    the first ``attempts`` executions of each job whose key contains
    ``match`` that no earlier rule failed, as ``kind`` — ``raise``,
    ``crash`` (``os._exit(13)``, like a segfault), ``hang`` (until a
    timeout reaps it) or ``corrupt`` (an invalid payload).

    ``O_EXCL`` marker files count the executions, since a crashed
    worker remembers nothing; each executing process also leaves a
    ``pid-<pid>`` marker.
    """

    def __init__(self, monkeypatch, state_dir):
        self.rules, self.state_dir = [], state_dir
        self._execute_job = supervisor.execute_job
        monkeypatch.setattr(supervisor, "execute_job", self.execute)

    def add(self, kind, match="", attempts=1):
        self.rules.append((kind, match, attempts))

    def pids(self):
        return {int(name[4:]) for name in os.listdir(self.state_dir)
                if name.startswith("pid-")}

    def _claim(self, token, attempts):
        for attempt in range(attempts):
            marker = os.path.join(self.state_dir, f"{token}.{attempt}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                return True
            except FileExistsError:
                pass
        return False

    def execute(self, job):
        open(os.path.join(self.state_dir, f"pid-{os.getpid()}"), "a").close()
        key = job_key(job)
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
        for index, (kind, match, attempts) in enumerate(self.rules):
            if match not in key \
                    or not self._claim(f"{index}-{digest}", attempts):
                continue
            if kind == "crash":
                os._exit(13)
            if kind == "corrupt":
                return {"__fault__": "corrupt payload (injected)"}
            if kind == "hang":
                time.sleep(3600.0)
            raise RuntimeError(f"injected {kind} in {job.benchmark}/"
                               f"{job.architecture}")
        return self._execute_job(job)


@pytest.fixture
def faults(monkeypatch, tmp_path):
    (tmp_path / "fault-state").mkdir()
    return Faults(monkeypatch, str(tmp_path / "fault-state"))
