"""Fabric network timing model.

Topology (Section III-A): each node connects to a first-hop router
where its STU lives, and routers connect over the memory-semantic
fabric to the FAM pool.  The paper's headline parameter is the one-way
node-to-FAM latency (500 ns, swept in Figure 15); we split it into the
two hops and add a shared serialization port on the FAM side so that
adding nodes creates queueing (Figure 16).

All ``*_arrival`` methods take a departure time and return an arrival
time; only the FAM-side port is a contended resource — pure wire
latency does not queue.
"""

from __future__ import annotations

from repro.config.system import FabricConfig
from repro.sim.resource import TimedResource
from repro.sim.stats import Stats

__all__ = ["FabricNetwork"]


class FabricNetwork:
    """Latency + FAM-port serialization model of the system fabric."""

    def __init__(self, config: FabricConfig, name: str = "fabric") -> None:
        self.config = config
        self.name = name
        #: Single serialization point where all nodes' FAM-bound
        #: messages converge (models the FAM module's fabric port).
        self.fam_port = TimedResource(f"{name}.fam_port")
        self.stats = Stats(name)
        # Counter dict and config latencies hoisted off the per-hop
        # path (Stats.incr is a call per hop; the dict add is not).
        self._counters = self.stats._counters
        self._node_to_stu_ns = config.node_to_stu_ns
        self._stu_to_fam_ns = config.stu_to_fam_ns
        self._port_occupancy_ns = config.port_occupancy_ns

    # ------------------------------------------------------------------
    # Hop primitives
    # ------------------------------------------------------------------
    def node_to_stu_arrival(self, depart: float) -> float:
        """Node -> first-hop router (where the STU sits)."""
        self._counters["node_to_stu"] += 1.0
        return depart + self._node_to_stu_ns

    def stu_to_node_arrival(self, depart: float) -> float:
        """Router -> node (responses)."""
        self._counters["stu_to_node"] += 1.0
        return depart + self._node_to_stu_ns

    def stu_to_fam_arrival(self, depart: float) -> float:
        """Router -> FAM, through the shared FAM port.

        The message occupies the port for ``port_occupancy_ns``;
        concurrent messages from other nodes queue behind it, which is
        the contention mechanism of the node-count sweep.
        """
        self._counters["stu_to_fam"] += 1.0
        port_free = self.fam_port.reserve(depart,
                                          self._port_occupancy_ns)
        # Wire latency accrues after the message wins the port.
        return port_free + self._stu_to_fam_ns

    def fam_to_stu_arrival(self, depart: float) -> float:
        """FAM -> router (responses; response path is uncontended)."""
        self._counters["fam_to_stu"] += 1.0
        return depart + self._stu_to_fam_ns

    # ------------------------------------------------------------------
    # Composite paths
    # ------------------------------------------------------------------
    def node_to_fam_arrival(self, depart: float) -> float:
        """Node all the way to FAM (through the STU router)."""
        return self.stu_to_fam_arrival(self.node_to_stu_arrival(depart))

    def fam_to_node_arrival(self, depart: float) -> float:
        """FAM response all the way back to the node."""
        return self.stu_to_node_arrival(self.fam_to_stu_arrival(depart))

    def reset(self) -> None:
        self.fam_port.reset()
        self.stats.reset()
