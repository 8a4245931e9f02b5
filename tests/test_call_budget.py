"""Python-level calls per simulated event, held to a recorded budget.

Host speed on the miss path is mostly Python calls: a first touch, an
STU walk or an ACM miss costs what its calls cost.  perfbench times
that, but a wall clock cannot gate a tier-1 test, so this test counts
instead: ``sys.setprofile`` sees every Python-level function call
(``"call"`` events; calls into C are ``"c_call"`` and are not counted)
made by one ``FamSystem.run`` of cactus, the most fault-heavy Fig. 3
outlier, on each architecture, and by one 8-node run of dc on DeACT-N,
which takes the interleaved multi-node driver of the Fig. 16 cells.
The count is deterministic for a given interpreter version, so a
change that adds a call per first touch or per FAM access fails here,
with no timing noise.

:data:`BUDGET` holds the counts measured under CPython 3.11 (the CI
interpreter).  A change that removes calls may lower them; one that
adds calls on purpose raises them and says why in CHANGES.md.  To
re-record, run this file as a script and paste the table it prints::

    PYTHONPATH=src python tests/test_call_budget.py
"""

import gc
import sys

import pytest

from repro.config.presets import default_config, with_nodes
from repro.core.system import FamSystem
from repro.experiments.runner import RunSettings, build_traces

SETTINGS = RunSettings(n_events=2_000, footprint_scale=0.06, seed=7)
BENCHMARK = "cactus"

#: Python-level calls made by one run of :data:`SETTINGS`, per
#: architecture (2,000 events each).
BUDGET = {
    "e-fam": 23_158,
    "i-fam": 37_457,
    "deact-w": 48_477,
    "deact-n": 48_477,
}

#: The interleaved-driver cell: ``(benchmark, nodes, architecture)``,
#: run at :data:`INTERLEAVED_SETTINGS` (300 events per node).
INTERLEAVED = ("dc", 8, "deact-n")
INTERLEAVED_SETTINGS = RunSettings(n_events=300, footprint_scale=0.06,
                                   seed=7)
#: Python-level calls made by one run of :data:`INTERLEAVED`.
INTERLEAVED_BUDGET = 118_965


def count_calls(architecture, benchmark=BENCHMARK, nodes=1,
                settings=SETTINGS):
    """Python-level calls made by one run of ``benchmark`` on ``nodes``
    nodes of ``architecture`` (trace generation and system
    construction are not counted)."""
    traces = build_traces(benchmark, nodes, settings)
    system = FamSystem(with_nodes(default_config(), nodes), architecture,
                       seed=5)
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # Garbage left by earlier code could run finalizers, which are
    # calls too, inside the counted window: collect it first, and let
    # no collection start inside.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        system.run(traces, benchmark=benchmark)
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    return calls


@pytest.mark.parametrize("architecture", sorted(BUDGET))
def test_calls_within_budget(architecture):
    calls = count_calls(architecture)
    per_event = calls / SETTINGS.n_events
    assert calls <= BUDGET[architecture], (
        f"{architecture}: {calls} calls ({per_event:.2f} per event) over "
        f"the budget of {BUDGET[architecture]}")


def count_interleaved_calls():
    benchmark, nodes, architecture = INTERLEAVED
    return count_calls(architecture, benchmark, nodes, INTERLEAVED_SETTINGS)


def test_interleaved_calls_within_budget():
    calls = count_interleaved_calls()
    benchmark, nodes, architecture = INTERLEAVED
    per_event = calls / (nodes * INTERLEAVED_SETTINGS.n_events)
    assert calls <= INTERLEAVED_BUDGET, (
        f"{benchmark} on {nodes} {architecture} nodes: {calls} calls "
        f"({per_event:.2f} per event) over the budget of "
        f"{INTERLEAVED_BUDGET}")


if __name__ == "__main__":
    print("BUDGET = {")
    for arch in BUDGET:
        print(f'    "{arch}": {count_calls(arch):_},')
    print("}")
    print(f"INTERLEAVED_BUDGET = {count_interleaved_calls():_}")
