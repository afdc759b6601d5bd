"""The cluster: a collection of nodes plus present-time allocation bookkeeping.

The :class:`Cluster` answers "what is free *right now*" and enforces the
no-oversubscription invariant.  Occupancy has one record here,
:attr:`Cluster.node_free` (plus the cores still held on nodes that are
down); which job holds which cores is each job's
:class:`~repro.cluster.allocation.Allocation`.  A :class:`~repro.cluster.node.Node`
carries only static facts.  Future availability (for reservations and
backfill) is handled by :class:`repro.cluster.profile.AvailabilityProfile`.
"""

from __future__ import annotations

import logging
from typing import Iterable, Sequence

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.node import Node, NodeState
from repro.cluster.profile import AvailabilityProfile

__all__ = ["Cluster"]

log = logging.getLogger("repro.cluster.machine")


class Cluster:
    """A set of compute nodes with core-level allocation tracking.

    Free cores per node live in :attr:`node_free`; a node failed while
    busy keeps its held cores in a side map until the jobs on it release
    them or it recovers to ``cores - held``.
    """

    def __init__(self, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ValueError("cluster needs at least one node")
        indices = [n.index for n in nodes]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate node indices")
        if min(indices) < 0:
            raise ValueError("negative node index")
        self.nodes: list[Node] = sorted(nodes, key=lambda n: n.index)
        self._by_index = {n.index: n for n in self.nodes}
        #: installed cores over all nodes regardless of state (fixed)
        self.total_cores: int = sum(n.cores for n in self.nodes)
        #: free cores per node index, 0 on a node that is not UP and on an
        #: index no node has — with each job's allocation, the one record
        #: of occupancy: :meth:`claim`, :meth:`release`, :meth:`fail_node`
        #: and :meth:`recover_node` keep it
        self.node_free: list[int] = [0] * (self.nodes[-1].index + 1)
        #: cores still held on each node that is not UP: :meth:`fail_node`
        #: moves a node's used cores here, :meth:`release` drains them and
        #: :meth:`recover_node` takes what is left as used again
        self._held_down: dict[int, int] = {}
        for n in self.nodes:
            if n.state is NodeState.UP:
                self.node_free[n.index] = n.cores
        #: running total of cores in use on all nodes — only :meth:`claim`
        #: and :meth:`release` move it, after their checks have passed
        self._used_cores: int = 0
        #: told the busy-core count after every claim/release (the
        #: telemetry busy integral); None keeps both uninstrumented
        self._on_busy_change = None
        #: monotone counter bumped on every allocation/state change; lets
        #: callers (the scheduler's quiescence check) detect staleness in O(1)
        self.version: int = 0
        #: per-shard monotone version counters (installed by the scheduler's
        #: :class:`~repro.maui.shards.ShardBook`, one shard included):
        #: ``shard_versions[s]`` bumps whenever a claim, an unforeseen
        #: release or a node state change touches a node of shard ``s``;
        #: ``shard_releases[s]`` bumps instead on a *foreseen* release, a
        #: job leaving at or after its walltime end, which every profile
        #: already holds at that time (docs/PERFORMANCE.md, R7)
        self.shard_versions: list[int] = []
        self.shard_releases: list[int] = []
        self._shard_of_node: dict[int, int] | None = None
        #: bumps only on node fail/recover — UP *capacity* (what shard
        #: routing keys on) never changes on a claim or release, so
        #: capability memos keyed here survive ordinary scheduling churn
        self.topology_version: int = 0

    def attach_telemetry(self, telemetry, clock) -> None:
        """Report busy-core changes to a telemetry facade.

        ``clock`` is the simulation engine (read for ``.now``); the busy
        integral is anchored at the current time and usage level.
        """
        telemetry.reset_busy_clock(clock.now, self.used_cores)
        self._on_busy_change = lambda busy: telemetry.on_busy_change(clock.now, busy)

    @classmethod
    def homogeneous(
        cls, num_nodes: int, cores_per_node: int, *, dynamic_partition_nodes: int = 0
    ) -> "Cluster":
        """Build the usual homogeneous cluster.

        ``dynamic_partition_nodes`` moves the highest-indexed N nodes into
        the "dynamic" partition, which the scheduler may reserve for serving
        dynamic requests (Section II-B option 2).
        """
        if num_nodes <= 0 or cores_per_node <= 0:
            raise ValueError("num_nodes and cores_per_node must be positive")
        if not 0 <= dynamic_partition_nodes <= num_nodes:
            raise ValueError("dynamic_partition_nodes out of range")
        nodes = []
        for i in range(num_nodes):
            partition = (
                "dynamic" if i >= num_nodes - dynamic_partition_nodes else "batch"
            )
            nodes.append(Node(index=i, cores=cores_per_node, partition=partition))
        return cls(nodes)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node(self, index: int) -> Node:
        return self._by_index[index]

    @property
    def up_cores(self) -> int:
        """Cores on nodes currently UP."""
        return sum(n.cores for n in self.nodes if n.state is NodeState.UP)

    @property
    def used_cores(self) -> int:
        return self._used_cores

    @property
    def free_cores(self) -> int:
        return sum(self.node_free)

    def free_by_node(
        self,
        *,
        partitions: Iterable[str] | None = None,
        nodes: Iterable[int] | None = None,
    ) -> dict[int, int]:
        """Free cores per UP node, over the node indices ``nodes`` or else
        the nodes of ``partitions`` (every node when both are None).

        A fresh dict on each call: callers such as :meth:`find_allocation`
        mutate theirs.
        """
        free = self.node_free
        if nodes is not None:
            by_index = self._by_index
            return {i: free[i] for i in nodes if by_index[i].state is NodeState.UP}
        wanted = frozenset(partitions) if partitions is not None else None
        return {
            n.index: free[n.index]
            for n in self.nodes
            if n.state is NodeState.UP and (wanted is None or n.partition in wanted)
        }

    # ------------------------------------------------------------------
    # shard bookkeeping
    # ------------------------------------------------------------------
    def install_shard_index(
        self, shard_of_node: dict[int, int], num_shards: int
    ) -> None:
        """Enable per-shard version counters: the resource half of a kept
        shard plan's fingerprint."""
        self._shard_of_node = dict(shard_of_node)
        self.shard_versions = [0] * num_shards
        self.shard_releases = [0] * num_shards

    def _bump_shards_for(
        self, node_indices: Iterable[int], counters: list[int]
    ) -> None:
        mapping = self._shard_of_node
        if mapping is None:
            return
        for idx in node_indices:
            shard = mapping.get(idx)
            if shard is not None:
                counters[shard] += 1

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def find_allocation(
        self,
        request: ResourceRequest,
        *,
        partitions: Iterable[str] | None = None,
        exclude_nodes: Iterable[int] = (),
    ) -> Allocation | None:
        """Find a concrete allocation satisfying ``request`` from free cores.

        Returns ``None`` when the request does not fit right now.  Placement
        is the availability profile's, so a start now and a start the
        planner foresees pick alike: pack shaped requests on the emptiest
        eligible nodes; fill flexible requests from the *most*-loaded
        eligible nodes first so idle nodes stay whole for shaped requests (a
        standard anti-fragmentation heuristic).
        """
        free = self.free_by_node(partitions=partitions)
        for idx in exclude_nodes:
            free.pop(idx, None)
        return AvailabilityProfile.fit_free(free, request)

    def claim(self, allocation: Allocation) -> None:
        """Mark the allocation's cores as used.

        Raises ``ValueError`` (leaving the cluster unchanged) if any node
        would be oversubscribed or is not UP.
        """
        free = self.node_free
        for idx, count in allocation.items():
            node = self._by_index.get(idx)
            if node is None:
                raise ValueError(f"unknown node index {idx}")
            if node.state is not NodeState.UP:
                raise ValueError(f"{node.name} is {node.state.value}, cannot allocate")
            if free[idx] < count:
                raise ValueError(
                    f"{node.name} oversubscribed: {count} requested, {free[idx]} free"
                )
        for idx, count in allocation.items():
            free[idx] -= count
        self._used_cores += allocation.total_cores
        self.version += 1
        self._bump_shards_for(allocation, self.shard_versions)
        if self._on_busy_change is not None:
            self._on_busy_change(self.used_cores)

    def release(self, allocation: Allocation, *, foreseen: bool = False) -> None:
        """Return the allocation's cores to the free pool.

        ``foreseen``: the release happens at or after the walltime end the
        profiles plan it for, so it bumps :attr:`shard_releases` instead of
        :attr:`shard_versions` (:attr:`version` bumps either way).
        """
        free, held_down = self.node_free, self._held_down
        for idx, count in allocation.items():
            node = self._by_index.get(idx)
            if node is None:
                raise ValueError(f"unknown node index {idx}")
            used = (
                node.cores - free[idx]
                if node.state is NodeState.UP
                else held_down.get(idx, 0)
            )
            if used < count:
                raise ValueError(
                    f"{node.name} releasing {count} cores but only {used} used"
                )
        for idx, count in allocation.items():
            if self._by_index[idx].state is NodeState.UP:
                free[idx] += count
            elif held_down[idx] == count:
                del held_down[idx]
            else:
                held_down[idx] -= count
        self._used_cores -= allocation.total_cores
        self.version += 1
        self._bump_shards_for(
            allocation, self.shard_releases if foreseen else self.shard_versions
        )
        if self._on_busy_change is not None:
            self._on_busy_change(self.used_cores)

    # ------------------------------------------------------------------
    # failures (extension used by fault-tolerance tests/examples)
    # ------------------------------------------------------------------
    def fail_node(self, index: int) -> bool:
        """Mark a node DOWN.  Caller is responsible for re-queueing jobs.

        Idempotent: failing a node that is already DOWN is a no-op and —
        crucially — does *not* bump :attr:`version`, so repeat transitions
        never spuriously void the scheduler's kept plans or defeat
        its quiescence fingerprint.  Returns True when the state changed.
        """
        node = self._by_index[index]
        if node.state is NodeState.DOWN:
            return False
        node.state = NodeState.DOWN
        held = node.cores - self.node_free[index]
        if held:
            self._held_down[index] = held
        self.node_free[index] = 0
        self.version += 1
        self.topology_version += 1
        self._bump_shards_for((index,), self.shard_versions)
        log.warning("node %s marked DOWN", node.name)
        return True

    def recover_node(self, index: int) -> bool:
        """Mark a node UP again.  Idempotent like :meth:`fail_node`."""
        node = self._by_index[index]
        if node.state is NodeState.UP:
            return False
        node.state = NodeState.UP
        self.node_free[index] = node.cores - self._held_down.pop(index, 0)
        self.version += 1
        self.topology_version += 1
        self._bump_shards_for((index,), self.shard_versions)
        log.info("node %s recovered", node.name)
        return True

    def __repr__(self) -> str:
        return (
            f"<Cluster {len(self.nodes)} nodes, "
            f"{self.used_cores}/{self.total_cores} cores used>"
        )
