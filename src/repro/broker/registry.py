"""Node and job identity management.

The broker tracks physical node ids (bounded by the ACM owner-field
width) and, per Section VI, *logical node ids* assigned to jobs so a
job can migrate between physical nodes by re-pointing its logical id
instead of rewriting every metadata entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.acm.metadata import max_nodes
from repro.errors import ConfigError

__all__ = ["NodeRegistry", "JobRecord"]


@dataclass
class JobRecord:
    """A scheduled job: a logical node id bound to a physical node."""

    job_name: str
    logical_id: int
    physical_node: int
    migrations: int = 0


class NodeRegistry:
    """Registers physical nodes and assigns logical ids to jobs."""

    def __init__(self, acm_bits: int = 16) -> None:
        self.acm_bits = acm_bits
        self._max_nodes = max_nodes(acm_bits)
        self._nodes: Dict[int, str] = {}
        self._jobs: Dict[str, JobRecord] = {}
        self._next_logical = 0

    # ------------------------------------------------------------------
    # Physical nodes
    # ------------------------------------------------------------------
    def register_node(self, node_id: int, label: str = "") -> None:
        """Admit a physical node to the system."""
        if not 0 <= node_id < self._max_nodes:
            raise ConfigError(
                f"node id {node_id} exceeds the {self.acm_bits}-bit ACM "
                f"limit of {self._max_nodes} nodes")
        if node_id in self._nodes:
            raise ConfigError(f"node id {node_id} already registered")
        self._nodes[node_id] = label or f"node{node_id}"

    def is_registered(self, node_id: int) -> bool:
        return node_id in self._nodes

    @property
    def capacity(self) -> int:
        """Maximum nodes the ACM width supports (16383 for 16-bit)."""
        return self._max_nodes

    # ------------------------------------------------------------------
    # Jobs / logical ids (Section VI page-migration support)
    # ------------------------------------------------------------------
    def schedule_job(self, job_name: str, physical_node: int) -> JobRecord:
        """Assign a fresh logical node id to a job on ``physical_node``."""
        if physical_node not in self._nodes:
            raise ConfigError(f"physical node {physical_node} not registered")
        if job_name in self._jobs:
            raise ConfigError(f"job {job_name!r} already scheduled")
        record = JobRecord(job_name=job_name,
                           logical_id=self._next_logical,
                           physical_node=physical_node)
        self._next_logical += 1
        self._jobs[job_name] = record
        return record

    def migrate_job(self, job_name: str, new_physical_node: int) -> JobRecord:
        """Re-point a job's logical id at another physical node.

        This is the cheap path the paper advocates: metadata keyed by
        logical id does not change; only the binding moves.
        """
        record = self._jobs.get(job_name)
        if record is None:
            raise ConfigError(f"unknown job {job_name!r}")
        if new_physical_node not in self._nodes:
            raise ConfigError(f"physical node {new_physical_node} not registered")
        record.physical_node = new_physical_node
        record.migrations += 1
        return record

    def job(self, job_name: str) -> Optional[JobRecord]:
        return self._jobs.get(job_name)
