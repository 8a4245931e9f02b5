"""Golden digests of short simulation cells.

The equivalence suite compares the fast path with the
:mod:`repro.core.refpath` oracle, so a change that moves both the same
way (the tag-store representation, say, which the oracle mirrors)
passes it unnoticed.  This suite pins absolute results instead: the
sha256 of ``_result_to_dict`` for a fixed set of short cells, recorded
in ``golden_digests.json`` next to this file.

A model change that moves results on purpose regenerates the file::

    PYTHONPATH=src python tests/test_golden_digests.py --write

and the diff of the JSON shows which cells moved.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.config.presets import default_config, with_nodes
from repro.core.system import FamSystem
from repro.experiments.runner import RunSettings, _result_to_dict, build_traces

GOLDEN = Path(__file__).with_name("golden_digests.json")

#: About 1.5k events per node over a small footprint: every layer runs
#: (walks, evictions, write-backs, STU and translator misses) in well
#: under a second per cell.
SETTINGS = RunSettings(n_events=1500, footprint_scale=0.01, seed=7)

ARCHITECTURES = ("e-fam", "i-fam", "deact-w", "deact-n")


def _cells():
    """``(name, benchmark, architecture, nodes, data-cache policy)``."""
    cells = []
    for bench in ("cactus", "lu"):
        for arch in ARCHITECTURES:
            cells.append((f"{bench}/{arch}/1n", bench, arch, 1, "lru"))
    for bench in ("pf", "dc"):
        for arch in ("i-fam", "deact-n"):
            cells.append((f"{bench}/{arch}/4n", bench, arch, 4, "lru"))
    # The other two data-cache policies: FIFO keeps insertion age on a
    # refill, random eviction draws from the store's seeded RNG.
    for policy in ("fifo", "random"):
        cells.append((f"cactus/deact-n/1n/{policy}", "cactus", "deact-n",
                      1, policy))
        cells.append((f"lu/e-fam/1n/{policy}", "lu", "e-fam", 1, policy))
    return cells


def _config(nodes, policy):
    config = with_nodes(default_config(), nodes)
    if policy == "lru":
        return config
    return config.replace(
        l1=dataclasses.replace(config.l1, replacement=policy),
        l2=dataclasses.replace(config.l2, replacement=policy),
        l3=dataclasses.replace(config.l3, replacement=policy))


def cell_digest(bench, arch, nodes, policy):
    traces = build_traces(bench, nodes, SETTINGS)
    system = FamSystem(_config(nodes, policy), arch,
                       seed=SETTINGS.seed * 31 + 5)
    result = system.run(traces, benchmark=bench)
    text = json.dumps(_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_cell():
    assert sorted(_golden()) == sorted(name for name, *_ in _cells())


@pytest.mark.parametrize("name,bench,arch,nodes,policy", _cells(),
                         ids=[cell[0] for cell in _cells()])
def test_cell_matches_golden(name, bench, arch, nodes, policy):
    assert cell_digest(bench, arch, nodes, policy) == _golden()[name]


def main(argv):
    if argv != ["--write"]:
        print(__doc__)
        return 2
    digests = {name: cell_digest(bench, arch, nodes, policy)
               for name, bench, arch, nodes, policy in _cells()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
