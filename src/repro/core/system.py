"""Whole-system assembly and the multi-node run driver.

:class:`FamSystem` builds the broker, fabric, FAM device and nodes for
a configuration + architecture, attaches per-node STUs (with walk
caches over each node's system page table), and runs one trace per
node with all nodes interleaved in global time order — so fabric-port
and FAM-bank contention between nodes is applied in the same order
real hardware would see (the mechanism behind Figure 16).

:meth:`FamSystem.run` has one production path: each node's node-side
pass (:meth:`~repro.core.node.Node.node_pass`) over its whole trace,
then the memory-side replay of the streams the passes built
(:meth:`~repro.core.node.Node.run_events`) — over the whole stream for
a single node, and under the interleaved multi-node driver in runs
bounded by the heap's next key, each run lasting as long as the seed's
per-event heap would have kept picking that node.  Grants reach the
broker as the replay meets them, so in the seed's order.  A caller
that holds streams from earlier cells (the harness's stream memo,
:func:`repro.experiments.runner.execute_job`) hands them to
:meth:`FamSystem.node_streams`, which reuses each one a node may adopt
and runs the pass for the rest; a bare ``run`` always runs every pass.
``run(reference=True)`` runs :mod:`repro.core.refpath`, the one oracle
it is checked against.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Union

from repro.broker.broker import MemoryBroker
from repro.config.system import SystemConfig
from repro.core.architectures import Architecture, make_architecture
from repro.core.node import Node, NodeStream
from repro.core.results import RunResult
from repro.errors import ConfigError
from repro.fabric.network import FabricNetwork
from repro.mem.device import NvmDevice
from repro.pagetable.walker import PageTableWalker
from repro.stu.stu import Stu
from repro.workloads.trace import Trace

__all__ = ["FamSystem"]


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
            streams: Optional[Sequence[NodeStream]] = None) -> RunResult:
        """Run one trace per node to completion.

        A single trace is replicated across nodes with per-node seeds
        already baked in by the caller; passing a sequence assigns
        ``traces[i]`` to node ``i``.

        Nodes advance in global core-time order, so their reservations
        on the shared fabric port and FAM banks interleave
        deterministically.

        By default the production path runs: each node's pass, then
        the replay of its stream (see the module docstring).
        ``streams``, when given, is what :meth:`node_streams` returned
        for these traces on this system, whose nodes are then already
        past their node side.  ``reference=True`` runs the boxed seed
        path preserved in :mod:`repro.core.refpath` instead — the
        oracle the production path is proved bit-identical against
        (``tests/test_hot_path_equivalence.py``).
        """
        if isinstance(traces, Trace):
            traces = [traces] * len(self.nodes)
        if len(traces) != len(self.nodes):
            raise ConfigError(
                f"got {len(traces)} traces for {len(self.nodes)} nodes")

        if reference:
            self._run_reference(traces)
        else:
            if streams is None:
                streams = self.node_streams(traces)
            if len(streams) == 1:
                self.nodes[0].run_events(zip(streams[0].gaps,
                                             streams[0].records))
            else:
                self._run_interleaved(streams)
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

    def node_streams(self, traces: Sequence[Trace],
                     reuse: Optional[Sequence[Optional[NodeStream]]] = None
                     ) -> List[NodeStream]:
        """Take every node of this fresh system past its node side,
        ``traces[i]`` on node ``i``; returns the nodes' streams, for
        :meth:`run`.

        ``reuse[i]``, when not ``None``, is a stream built by node
        ``i``'s pass in an earlier cell with the same node-side inputs
        (:class:`~repro.core.node.NodeStream`): node ``i`` adopts it
        when it can (:meth:`~repro.core.node.Node.can_adopt`), and
        runs its own pass otherwise, as every node does without
        ``reuse``.
        """
        page_bytes = self.config.page_bytes
        block_bytes = self.config.block_bytes
        streams = []
        for index, (node, trace) in enumerate(zip(self.nodes, traces,
                                                  strict=True)):
            stream = reuse[index] if reuse is not None else None
            if (stream is not None and len(stream.gaps) == len(trace)
                    and node.can_adopt(stream)):
                node.adopt(stream)
            else:
                stream = node.node_pass(trace.decoded(page_bytes,
                                                      block_bytes))
            streams.append(stream)
        return streams

    def _run_interleaved(self, streams: Sequence[NodeStream]) -> None:
        """Multi-node replay in the seed per-event order: the next
        event always belongs to the node with the earliest
        ``(core_time, index)`` key, so fabric and FAM reservations
        and broker grants interleave exactly as the reference driver's.

        Rather than one heap pop and push per event, the node at the
        top of the heap replays
        :meth:`~repro.core.node.Node.run_events` until its key reaches
        or passes the heap's next key ``(t_next, j)``: up to ``t_next``
        inclusive when its index is below ``j`` (it wins the tie), else
        up to just below ``t_next``.  A run that returns at or below
        its bound ran out of events, and the node leaves the heap;
        otherwise one ``heapreplace`` re-keys it.  (A run whose last
        event passes the bound leaves the node in the heap once more,
        for an empty run.)  Each node keeps one iterator over its
        stream throughout.
        """
        nodes = self.nodes
        runs = [node.run_events for node in nodes]
        events = [zip(stream.gaps, stream.records) for stream in streams]
        frontier = [(nodes[index].core_time_ns, index)
                    for index in range(len(nodes)) if streams[index].gaps]
        heapq.heapify(frontier)
        replace, pop = heapq.heapreplace, heapq.heappop
        while frontier:
            index = frontier[0][1]
            if len(frontier) == 1:
                runs[index](events[index])
                return
            t_next, j = frontier[1]
            if len(frontier) > 2 and frontier[2] < frontier[1]:
                t_next, j = frontier[2]
            until = t_next if index < j else math.nextafter(t_next,
                                                            -math.inf)
            node_time = runs[index](events[index], until)
            if node_time > until:
                replace(frontier, (node_time, index))
            else:
                pop(frontier)

    def _run_reference(self, traces: Sequence[Trace]) -> None:
        """The seed per-event loop: boxed TraceEvents through
        :func:`repro.core.refpath.reference_step`, the oracle the
        production path is checked against."""
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
