"""Whole-system assembly and the multi-node run driver.

:class:`FamSystem` builds the broker, fabric, FAM device and nodes for
a configuration + architecture, attaches per-node STUs (with walk
caches over each node's system page table), and runs one trace per
node with all nodes interleaved in global time order — so fabric-port
and FAM-bank contention between nodes is applied in the same order
real hardware would see (the mechanism behind Figure 16).

Every non-reference run goes through one scalar fast loop,
:meth:`~repro.core.node.Node.run_events`: over the whole trace for a
single node (:meth:`~repro.core.node.Node.run_decoded`), and under the
interleaved multi-node driver in runs bounded by the heap's next key —
each run lasts as long as the seed's per-event heap would have kept
picking that node.  :mod:`repro.core.refpath` is the oracle it is
checked against.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Union

from repro.broker.broker import MemoryBroker
from repro.config.system import SystemConfig
from repro.core.architectures import Architecture, make_architecture
from repro.core.node import Node
from repro.core.results import RunResult
from repro.errors import ConfigError
from repro.fabric.network import FabricNetwork
from repro.mem.device import NvmDevice
from repro.pagetable.walker import PageTableWalker
from repro.stu.stu import Stu
from repro.workloads.trace import DecodedTrace, Trace

__all__ = ["FamSystem", "EXECUTION_MODES", "DEFAULT_EXECUTION_MODE"]

#: The two execution tiers, fastest first.  Both are bit-identical
#: (``tests/test_hot_path_equivalence.py``); they differ only in how
#: much Python-level work each trace event costs.
EXECUTION_MODES = ("fast", "reference")
DEFAULT_EXECUTION_MODE = "fast"


class FamSystem:
    """A complete FAM system instance for one run."""

    def __init__(self, config: SystemConfig,
                 architecture: Union[str, Architecture],
                 seed: int = 0x5EED) -> None:
        self.config = config
        self.architecture = make_architecture(architecture)
        self.broker = MemoryBroker(config.fam, config.allocation,
                                   acm_bits=config.stu.acm_bits)
        self.fabric = FabricNetwork(config.fabric)
        self.fam = NvmDevice(config.fam)
        self.nodes: List[Node] = []
        for node_id in range(config.nodes):
            self.broker.register_node(node_id)
            node = Node(node_id, config, self.broker, self.fabric,
                        self.fam, self.architecture,
                        seed=seed + node_id * 7919)
            if self.architecture.needs_stu:
                node.stu = self._build_stu(node_id)
            self.nodes.append(node)

    def _build_stu(self, node_id: int) -> Stu:
        """One STU per node, at the node's first-hop router."""
        organization = self.architecture.make_stu_organization(
            self.config.stu)
        walker = PageTableWalker(self.broker.system_table(node_id),
                                 self.config.stu.walk_cache_entries,
                                 name=f"stu{node_id}.ptw")
        return Stu(node_id, self.config.stu, self.broker.acm, walker,
                   self.fabric, self.fam, organization,
                   name=f"stu{node_id}")

    # ------------------------------------------------------------------
    def run(self, traces: Union[Trace, Sequence[Trace]],
            benchmark: Optional[str] = None,
            reference: bool = False,
            mode: Optional[str] = None) -> RunResult:
        """Run one trace per node to completion.

        A single trace is replicated across nodes with per-node seeds
        already baked in by the caller; passing a sequence assigns
        ``traces[i]`` to node ``i``.

        Nodes advance in global core-time order, so their reservations
        on the shared fabric port and FAM banks interleave
        deterministically.

        ``mode`` selects the execution tier (bit-identical, proved by
        ``tests/test_hot_path_equivalence.py``):

        * ``"fast"`` (default) — the allocation-free per-event loop
          over pre-decoded trace columns
          (:meth:`~repro.core.node.Node.run_events`).
        * ``"reference"`` — the boxed seed path preserved in
          :mod:`repro.core.refpath`, kept for the equivalence proof
          and the core-loop microbenchmark.  ``reference=True`` is the
          backward-compatible alias.
        """
        if isinstance(traces, Trace):
            traces = [traces] * len(self.nodes)
        if len(traces) != len(self.nodes):
            raise ConfigError(
                f"got {len(traces)} traces for {len(self.nodes)} nodes")
        resolved = "reference" if reference else (
            mode or DEFAULT_EXECUTION_MODE)
        if resolved not in EXECUTION_MODES:
            raise ConfigError(
                f"unknown execution mode {resolved!r}; choose from "
                f"{', '.join(EXECUTION_MODES)}")

        if resolved == "reference":
            self._run_reference(traces)
        else:
            self._run_scalar(traces)
        for node in self.nodes:
            node.drain()

        name = benchmark or (traces[0].name if traces else "unnamed")
        return RunResult(
            architecture=self.architecture.key,
            benchmark=name,
            nodes=[node.metrics() for node in self.nodes],
            fam_counters=self.fam.stats.snapshot(),
            fabric_counters=self.fabric.stats.snapshot(),
        )

    def _run_scalar(self, traces: Sequence[Trace]) -> None:
        """The fast tier: the inlined scalar loop for a single node,
        the interleaved driver otherwise."""
        page_bytes = self.config.page_bytes
        block_bytes = self.config.block_bytes
        decoded = [trace.decoded(page_bytes, block_bytes)
                   for trace in traces]
        if len(decoded) == 1:
            self.nodes[0].run_decoded(decoded[0])
        else:
            self._run_interleaved(decoded)

    def _run_interleaved(self, decoded: Sequence[DecodedTrace]) -> None:
        """Multi-node driver in the seed per-event order: the next
        event always belongs to the node with the earliest
        ``(core_time, index)`` key, so fabric and FAM reservations
        interleave exactly as the reference driver's.

        Rather than one heap pop and push per event, the node at the
        top of the heap runs :meth:`~repro.core.node.Node.run_events`
        until its key reaches or passes the heap's next key
        ``(t_next, j)``: up to ``t_next`` inclusive when its index is
        below ``j`` (it wins the tie), else up to just below
        ``t_next``.  Then one ``heapreplace`` re-keys it.  Each node
        keeps one ``zip`` iterator over its trace columns throughout.
        """
        nodes = self.nodes
        runs = [node.run_events for node in nodes]
        events = [d.events() for d in decoded]
        left = [len(d) for d in decoded]
        frontier = [(nodes[index].core_time_ns, index)
                    for index in range(len(nodes)) if left[index]]
        heapq.heapify(frontier)
        replace, pop = heapq.heapreplace, heapq.heappop
        while frontier:
            index = frontier[0][1]
            node = nodes[index]
            if len(frontier) == 1:
                runs[index](events[index])
                return
            t_next, j = frontier[1]
            if len(frontier) > 2 and frontier[2] < frontier[1]:
                t_next, j = frontier[2]
            before = node.memory_events
            node_time = runs[index](
                events[index],
                t_next if index < j else math.nextafter(t_next, -math.inf))
            left[index] -= node.memory_events - before
            if left[index]:
                replace(frontier, (node_time, index))
            else:
                pop(frontier)

    def _run_reference(self, traces: Sequence[Trace]) -> None:
        """The seed per-event loop: boxed TraceEvents through
        :func:`repro.core.refpath.reference_step` (kept for the
        equivalence proof and the core-loop microbenchmark)."""
        from repro.core.refpath import reference_step  # avoid cycle

        iterators = [iter(trace) for trace in traces]
        frontier = []
        for index, iterator in enumerate(iterators):
            event = next(iterator, None)
            if event is not None:
                frontier.append((self.nodes[index].core_time_ns, index,
                                 event))
        heapq.heapify(frontier)
        while frontier:
            _t, index, event = heapq.heappop(frontier)
            node_time = reference_step(self.nodes[index], event)
            nxt = next(iterators[index], None)
            if nxt is not None:
                heapq.heappush(frontier, (node_time, index, nxt))

    # ------------------------------------------------------------------
    def tag_store_probes(self) -> int:
        """System-wide tag-store probe count (telemetry)."""
        return sum(node.tag_store_probes() for node in self.nodes)

    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]
