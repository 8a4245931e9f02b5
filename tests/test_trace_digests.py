"""Golden digests of every catalog benchmark's synthetic trace.

``golden_digests.json`` reaches the trace generator only through the
few benchmarks its cells simulate.  This suite pins the generator
itself: the sha256 of the four trace columns (gaps, virtual addresses,
writes, dependents) of every catalog benchmark, for two seeds and both
of the first two nodes' traces as
:func:`repro.experiments.runner.build_traces` derives them (node 1
draws from ``seed + 1009``).  The digests live in
``trace_digests.json`` next to this file.

A change that moves traces on purpose regenerates the file::

    PYTHONPATH=src python tests/test_trace_digests.py --write

and the diff of the JSON shows which traces moved.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import RunSettings, build_traces
from repro.workloads.catalog import benchmark_names

GOLDEN = Path(__file__).with_name("trace_digests.json")

N_EVENTS = 2000
FOOTPRINT_SCALE = 0.12
SEEDS = (7, 11)
NODES = 2


def _cells():
    """``(name, benchmark, seed)``; each cell covers ``NODES`` traces."""
    return [(f"{bench}/seed{seed}", bench, seed)
            for bench in benchmark_names() for seed in SEEDS]


def trace_digest(trace):
    digest = hashlib.sha256()
    for column in (trace.gaps, trace.vaddrs, trace.writes, trace.dependents):
        digest.update(json.dumps(column).encode("ascii"))
    return digest.hexdigest()


def cell_digests(bench, seed):
    settings = RunSettings(n_events=N_EVENTS, footprint_scale=FOOTPRINT_SCALE,
                           seed=seed)
    return [trace_digest(trace)
            for trace in build_traces(bench, NODES, settings)]


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_cell():
    assert sorted(_golden()) == sorted(name for name, *_ in _cells())


@pytest.mark.parametrize("name,bench,seed", _cells(),
                         ids=[cell[0] for cell in _cells()])
def test_traces_match_golden(name, bench, seed):
    assert cell_digests(bench, seed) == _golden()[name]


def main(argv):
    if argv != ["--write"]:
        print(__doc__)
        return 2
    digests = {name: cell_digests(bench, seed)
               for name, bench, seed in _cells()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
