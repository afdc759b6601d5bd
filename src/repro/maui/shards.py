"""Per-partition scheduler shards.

A :class:`ShardMap` splits the static-partition nodes into contiguous
shards.  Each shard owns its own :class:`~repro.cluster.profile.
AvailabilityProfile` matrix, incremental-maintenance base, reservation
counter and pass fingerprint inside :class:`~repro.maui.scheduler.
MauiScheduler`, so planning, backfill scans and ``earliest_fit`` run over
a shard-sized node set — and a wake-up in one partition never re-plans
the others.

Two invariants make the decomposition exact rather than approximate:

* **Contiguity.**  Every shard is a contiguous run of the ascending node
  index order, and shards are emitted in that same order.  Concatenating
  shard node tuples therefore reproduces the global node order, which is
  the tie-breaking order of ``AvailabilityProfile._fit_from_min`` — a
  plan computed on a merged view picks the same nodes a plan on the
  whole partition would.
* **Static membership.**  Shard membership is fixed at construction
  (DOWN nodes included); availability is rediscovered per pass from the
  cluster's free map, exactly like a whole-partition profile build.

Jobs whose request no single shard can satisfy (full-machine ESP Z jobs,
oversized shaped requests) return ``None`` from :meth:`ShardMap.route`
and go through the scheduler's explicit cross-shard merge step instead.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.node import NodeState

__all__ = ["SchedulerShard", "ShardMap"]


class SchedulerShard:
    """One contiguous slice of the static node set."""

    __slots__ = ("index", "partition", "nodes", "node_set", "cache_key")

    def __init__(self, index: int, partition: str, nodes: tuple[int, ...]) -> None:
        self.index = index
        self.partition = partition
        self.nodes = nodes
        self.node_set = frozenset(nodes)
        #: profile-cache key; an int component keeps it disjoint from the
        #: all-string partition tuples the whole-partition views key on
        self.cache_key = ("shard", index)

    def can_host(self, cluster: Cluster, request: ResourceRequest) -> bool:
        """Could this shard's UP capacity ever satisfy ``request``?

        A capacity test, not an availability test: routing must be stable
        while jobs queue, so it ignores what is currently busy.
        """
        if request.is_shaped:
            wide_enough = 0
            for idx in self.nodes:
                node = cluster.node(idx)
                if node.state is NodeState.UP and node.cores >= request.ppn:
                    wide_enough += 1
                    if wide_enough >= request.nodes:
                        return True
            return False
        total = sum(
            cluster.node(idx).cores
            for idx in self.nodes
            if cluster.node(idx).state is NodeState.UP
        )
        return total >= request.cores

    def __repr__(self) -> str:
        return (
            f"<SchedulerShard {self.index} partition={self.partition!r} "
            f"nodes={len(self.nodes)}>"
        )


class ShardMap:
    """The shard decomposition of a cluster's static partitions."""

    def __init__(self, shards: tuple[SchedulerShard, ...]) -> None:
        if not shards:
            raise ValueError("shard map needs at least one shard")
        self.shards = shards
        self.node_to_shard: dict[int, int] = {}
        for shard in shards:
            for idx in shard.nodes:
                if idx in self.node_to_shard:
                    raise ValueError(f"node {idx} assigned to two shards")
                self.node_to_shard[idx] = shard.index

    def __len__(self) -> int:
        return len(self.shards)

    @classmethod
    def build(
        cls,
        cluster: Cluster,
        num_shards: int,
        *,
        partitions: Iterable[str] | None = None,
    ) -> "ShardMap":
        """Split the nodes of the given partitions into ≤ ``num_shards``
        balanced contiguous chunks per partition.

        Partitions never share a shard — that is the point: a dynamic
        partition kept out of ``partitions`` (the scheduler passes
        :func:`~repro.maui.partition.static_partitions`) simply has no
        shard, exactly as it has no column in the static-partition profile.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        wanted = set(partitions) if partitions is not None else None
        by_partition: dict[str, list[int]] = {}
        for node in cluster.nodes:  # ascending index order
            if wanted is None or node.partition in wanted:
                by_partition.setdefault(node.partition, []).append(node.index)
        shards: list[SchedulerShard] = []
        for partition in sorted(by_partition):
            indices = by_partition[partition]
            chunks = min(num_shards, len(indices))
            base, extra = divmod(len(indices), chunks)
            pos = 0
            for c in range(chunks):
                size = base + (1 if c < extra else 0)
                shards.append(
                    SchedulerShard(
                        len(shards), partition, tuple(indices[pos : pos + size])
                    )
                )
                pos += size
        if not shards:
            # degenerate: every node lives outside the static partitions;
            # one empty shard keeps the scheduler's single-shard fast path
            shards = [SchedulerShard(0, "batch", ())]
        return cls(tuple(shards))

    def capable_shards(
        self, cluster: Cluster, request: ResourceRequest
    ) -> tuple[SchedulerShard, ...]:
        """Shards whose UP capacity could satisfy ``request``, in order."""
        return tuple(s for s in self.shards if s.can_host(cluster, request))

    def split_allocation(
        self, allocation: Mapping[int, int]
    ) -> dict[int, Allocation]:
        """Scatter a cross-shard allocation back into per-shard pieces."""
        parts: dict[int, dict[int, int]] = {}
        for idx, count in allocation.items():
            parts.setdefault(self.node_to_shard[idx], {})[idx] = count
        return {sid: Allocation(piece) for sid, piece in parts.items()}
