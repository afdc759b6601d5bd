"""Compute node model."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class NodeState(enum.Enum):
    """Operational state of a compute node."""

    UP = "up"
    DOWN = "down"


@dataclass
class Node:
    """A compute node with a fixed number of cores.

    Only static facts live here (and the UP/DOWN state the fault path
    flips); how many cores are free is
    :attr:`repro.cluster.machine.Cluster.node_free`.
    """

    index: int
    cores: int
    state: NodeState = NodeState.UP
    #: Optional partition label ("batch" by default; the dynamic-partition
    #: option places some nodes in a "dynamic" partition reserved for
    #: evolving-job expansion).
    partition: str = "batch"

    @property
    def name(self) -> str:
        """Torque-style node name."""
        return f"node{self.index:03d}"

    def __repr__(self) -> str:
        return (
            f"<Node {self.name} {self.cores} cores"
            f" [{self.state.value}/{self.partition}]>"
        )
