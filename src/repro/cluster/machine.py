"""The cluster: a collection of nodes plus present-time allocation bookkeeping.

The :class:`Cluster` answers "what is free *right now*" and enforces the
no-oversubscription invariant.  Future availability (for reservations and
backfill) is handled by :class:`repro.cluster.profile.AvailabilityProfile`.
"""

from __future__ import annotations

import logging
from typing import Iterable, Sequence

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.node import Node, NodeState

__all__ = ["Cluster"]

log = logging.getLogger("repro.cluster.machine")


class Cluster:
    """A set of compute nodes with core-level allocation tracking."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ValueError("cluster needs at least one node")
        indices = [n.index for n in nodes]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate node indices")
        self.nodes: list[Node] = sorted(nodes, key=lambda n: n.index)
        self._by_index = {n.index: n for n in self.nodes}
        #: running total of ``Node.used`` — only :meth:`claim` and
        #: :meth:`release` move it, after their checks have passed
        self._used_cores: int = sum(n.used for n in self.nodes)
        #: told the busy-core count after every claim/release (the
        #: telemetry busy integral); None keeps both uninstrumented
        self._on_busy_change = None
        #: monotone counter bumped on every allocation/state change; lets
        #: callers (the scheduler's quiescence check) detect staleness in O(1)
        self.version: int = 0
        #: free-map cache: the backfill path asks for the same partition
        #: (or shard) view many times per scheduling pass, and the answer
        #: only changes when :attr:`version` does — cache the scan, hand
        #: out copies (callers like :meth:`find_allocation` mutate theirs)
        self._free_cache: dict = {}
        self._free_cache_version: int = -1
        #: per-shard monotone version counters (installed by the scheduler's
        #: :class:`~repro.maui.shards.ShardBook`, one shard included);
        #: index ``shard_versions[s]`` bumps whenever a claim,
        #: release or node state change touches a node of shard ``s``
        self.shard_versions: list[int] = []
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
    def total_cores(self) -> int:
        """Installed cores over all nodes regardless of state."""
        return sum(n.cores for n in self.nodes)

    @property
    def up_cores(self) -> int:
        """Cores on nodes currently UP."""
        return sum(n.cores for n in self.nodes if n.state is NodeState.UP)

    @property
    def used_cores(self) -> int:
        return self._used_cores

    @property
    def free_cores(self) -> int:
        return sum(n.free for n in self.nodes)

    def _cached_free(self, key, build) -> dict[int, int]:
        """Version-keyed memo for free-map scans; returns a private copy."""
        if self._free_cache_version != self.version:
            self._free_cache_version = self.version
            self._free_cache.clear()
        cached = self._free_cache.get(key)
        if cached is None:
            cached = self._free_cache[key] = build()
        return dict(cached)

    def free_by_node(self, *, partitions: Iterable[str] | None = None) -> dict[int, int]:
        """Free cores per UP node, optionally restricted to partitions."""
        wanted = frozenset(partitions) if partitions is not None else None

        def build() -> dict[int, int]:
            return {
                n.index: n.free
                for n in self.nodes
                if n.state is NodeState.UP
                and (wanted is None or n.partition in wanted)
            }

        return self._cached_free(("partitions", wanted), build)

    def free_for_nodes(self, node_indices: Iterable[int]) -> dict[int, int]:
        """Free cores per UP node over an explicit node index set.

        The sharded scheduler's per-shard profile builds go through this
        instead of scanning all nodes; the answer is cached per
        :attr:`version` like :meth:`free_by_node`.
        """
        wanted = tuple(node_indices)

        def build() -> dict[int, int]:
            return {
                idx: self._by_index[idx].free
                for idx in wanted
                if self._by_index[idx].state is NodeState.UP
            }

        return self._cached_free(("nodes", wanted), build)

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

    def _bump_shards_for(self, node_indices: Iterable[int]) -> None:
        mapping = self._shard_of_node
        if mapping is None:
            return
        for idx in node_indices:
            shard = mapping.get(idx)
            if shard is not None:
                self.shard_versions[shard] += 1

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
        policy: pack shaped requests on the emptiest eligible nodes; fill
        flexible requests from the *most*-loaded eligible nodes first so idle
        nodes stay whole for shaped requests (a standard anti-fragmentation
        heuristic).
        """
        free = self.free_by_node(partitions=partitions)
        for idx in exclude_nodes:
            free.pop(idx, None)
        if request.is_shaped:
            candidates = sorted(
                (idx for idx, f in free.items() if f >= request.ppn),
                key=lambda idx: (-free[idx], idx),
            )
            if len(candidates) < request.nodes:
                return None
            chosen = sorted(candidates[: request.nodes])
            return Allocation({idx: request.ppn for idx in chosen})
        if sum(free.values()) < request.cores:
            return None
        remaining = request.cores
        picks: dict[int, int] = {}
        for idx in sorted(free, key=lambda i: (free[i], i)):
            if free[idx] <= 0:
                continue
            take = min(free[idx], remaining)
            picks[idx] = take
            remaining -= take
            if remaining == 0:
                break
        assert remaining == 0
        return Allocation(picks)

    def claim(self, allocation: Allocation) -> None:
        """Mark the allocation's cores as used.

        Raises ``ValueError`` (leaving the cluster unchanged) if any node
        would be oversubscribed or is not UP.
        """
        for idx, count in allocation.items():
            node = self._by_index.get(idx)
            if node is None:
                raise ValueError(f"unknown node index {idx}")
            if node.state is not NodeState.UP:
                raise ValueError(f"{node.name} is {node.state.value}, cannot allocate")
            if node.free < count:
                raise ValueError(
                    f"{node.name} oversubscribed: {count} requested, {node.free} free"
                )
        for idx, count in allocation.items():
            self._by_index[idx].used += count
            self._used_cores += count
        self.version += 1
        self._bump_shards_for(allocation)
        if self._on_busy_change is not None:
            self._on_busy_change(self.used_cores)

    def release(self, allocation: Allocation) -> None:
        """Return the allocation's cores to the free pool."""
        for idx, count in allocation.items():
            node = self._by_index.get(idx)
            if node is None:
                raise ValueError(f"unknown node index {idx}")
            if node.used < count:
                raise ValueError(
                    f"{node.name} releasing {count} cores but only {node.used} used"
                )
        for idx, count in allocation.items():
            self._by_index[idx].used -= count
            self._used_cores -= count
        self.version += 1
        self._bump_shards_for(allocation)
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
        self.version += 1
        self.topology_version += 1
        self._bump_shards_for((index,))
        log.warning("node %s marked DOWN", node.name)
        return True

    def recover_node(self, index: int) -> bool:
        """Mark a node UP again.  Idempotent like :meth:`fail_node`."""
        node = self._by_index[index]
        if node.state is NodeState.UP:
            return False
        node.state = NodeState.UP
        self.version += 1
        self.topology_version += 1
        self._bump_shards_for((index,))
        log.info("node %s recovered", node.name)
        return True

    def __repr__(self) -> str:
        return (
            f"<Cluster {len(self.nodes)} nodes, "
            f"{self.used_cores}/{self.total_cores} cores used>"
        )
