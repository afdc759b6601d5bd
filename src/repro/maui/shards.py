"""Per-partition scheduler shards.

A :class:`ShardMap` splits the static-partition nodes into contiguous
shards.  Each shard has its own :class:`~repro.cluster.profile.
AvailabilityProfile` matrix and incremental-maintenance base
(:mod:`repro.maui.profiles`) and its own :class:`ShardPlan` — working
profile, reservation counter, fingerprint — so planning, backfill scans
and ``earliest_fit`` run over a shard-sized node set, and a wake-up in one
partition never re-plans the others.  What the static pass
(:mod:`repro.maui.staticpass`) keeps per shard *between* passes lives in a
:class:`ShardBook`: the sticky job → shard routing and the plans that
outlived their pass.

Two invariants make the decomposition exact rather than approximate:

* **Contiguity.**  Every shard is a contiguous run of its partition's
  ascending node index order, and shards are emitted partition by
  partition.  A merged view (``AvailabilityProfile.merge``) therefore has
  the global node order — restored by the merge where partition names do
  not follow node indices — which is the tie-breaking order of
  ``AvailabilityProfile._fit_from_min``: a plan computed on a merged view
  picks the same nodes a plan on the whole partition would.
* **Static membership.**  Shard membership is fixed at construction
  (DOWN nodes included); a shard's profile covers its UP nodes and is
  rebuilt from scratch when a node fails or recovers.

Jobs whose request no single shard can satisfy (full-machine ESP Z jobs,
oversized shaped requests) route to ``None`` in :meth:`ShardBook.route`
and go through the static pass's explicit cross-shard merge step instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.node import NodeState
from repro.cluster.profile import AvailabilityProfile
from repro.jobs.job import Job
from repro.rms.server import Server

__all__ = ["SchedulerShard", "ShardBook", "ShardMap", "ShardPlan"]


class SchedulerShard:
    """One contiguous slice of the static node set."""

    __slots__ = ("index", "partition", "nodes", "node_set", "cache_key")

    def __init__(self, index: int, partition: str, nodes: tuple[int, ...]) -> None:
        self.index = index
        self.partition = partition
        self.nodes = nodes
        self.node_set = frozenset(nodes)
        #: key of the shard's profile base; an int component keeps it disjoint from the
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
        balanced contiguous chunks per partition; at 1 (the default) each
        partition is one shard, routed, planned and kept like any other.

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
            # one empty shard gives the static pass a view nothing fits
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


@dataclass(slots=True, eq=False)
class ShardPlan:
    """One shard's plan: what a static pass placed on the shard's profile.

    The walk keeps one per shard while it runs; a pass that leaves the plan
    valid files the same record in :attr:`ShardBook.plans`, and the next
    pass starts from it.  A shard's planning outcome is a pure function of
    its *resources* (cluster slice and the future releases on it) and its
    *queue* (the jobs routed to it in pass order and what each asks for);
    the two fingerprint halves are compared separately, because nothing
    behind a job influences its plan.
    """

    #: index of the shard whose view the plan's profile is built on
    sid: int
    #: the fingerprint: :meth:`ShardBook.resources` (None: stale, a start
    #: of this pass moved it) and the routed ids the plan covers
    resources: tuple | None = None
    queue: tuple = ()
    #: ``cluster.shard_releases[sid]`` when matched and filed: releases the
    #: profile foresaw, which keep the plan (R7)
    releases: int = 0
    #: working profile with this plan's claims; built on the shard's first
    #: blocked job (R6), so None while every routed job started
    profile: AvailabilityProfile | None = None
    #: reservations counted against ``ReservationDepth`` (a spanning job
    #: counts on every shard without an entry in ``reserved``)
    res_count: int = 0
    #: job id -> ``(start, allocation)`` of its reservation
    reserved: dict[str, tuple[float, Allocation]] = field(default_factory=dict)
    #: earliest start in ``reserved`` (under R7, of those walked so far):
    #: once due, the plan is void unless a foreseen release starts it
    min_res_start: float | None = None
    #: ids examined and neither started nor proven unfittable
    blocked: set[str] = field(default_factory=set)
    #: ids of moldable jobs examined and not started: freed cores can
    #: change their outcome, so R7 re-walks from the first of them
    moldable: set[str] = field(default_factory=set)
    #: jobs at the head of ``queue`` still to replay from this plan
    replay_left: int = 0
    #: the plan covers the whole routed queue: nothing to plan
    skipped: bool = False
    #: a start of this pass reaches into a reservation window
    overlapped: bool = False


class ShardBook:
    """What the static pass keeps between passes: sticky routing and the
    plans that outlived their pass (docs/PERFORMANCE.md, "Kept shard
    plans")."""

    def __init__(self, cluster: Cluster, server: Server, shard_map: ShardMap) -> None:
        self.cluster = cluster
        self.server = server
        self.shard_map = shard_map
        cluster.install_shard_index(shard_map.node_to_shard, len(shard_map))
        self.plans: dict[int, ShardPlan] = {}
        #: sticky job -> ``(request, shard index, topology version, cores)``
        #: assignments, made least-loaded-first in deterministic pass order
        #: and kept while the job queues — stable routing is what keeps the
        #: routed queues (and with them the kept plans) quiescent between
        #: passes.  Deliberately NOT keyed on ``Job.seq``: that is a
        #: process-global counter and not stable across runs in one process.
        self._assign: dict[str, tuple] = {}
        #: request shape -> capable shards, valid for one topology version
        self._capable: dict = {}
        self._capable_topology = -1

    # -- routing --------------------------------------------------------
    def route(
        self, ordered: list[Job]
    ) -> tuple[list[int | None], list[list[str]]]:
        """Deterministic, run-stable shard for every queued job, in one walk.

        Returns ``(sids, routed)``: ``sids[i]`` is the shard index of
        ``ordered[i]`` and ``routed[sid]`` the ids of the jobs routed to
        that shard in pass order (the queue half of its fingerprint).

        Capable shards (UP capacity could ever satisfy the request) are
        memoized per request shape and cluster topology version (bumped
        only on node fail/recover — ordinary claims and releases never
        change UP capacity, so the memo survives them).  A first-seen job
        is assigned the capable shard with the fewest queued cores routed
        so far this pass (lowest index on ties) and keeps that assignment
        while it queues; the per-pass queued-core tally is recomputed from
        the priority walk each pass so departed jobs never leave stale
        weight behind.  ``None`` means no single shard can host the
        request (a full-machine ESP Z job, an oversized shape): the walk
        plans it on the cross-shard merge.
        """
        if len(self._assign) > len(self.server.queue):
            # some job left the queue without starting (``cancel_queued``,
            # a failed ``afterok``, a service ``cancel``): forget it.
            # Queued jobs this pass does not walk — held, waiting on a
            # dependency, throttled — keep their shard.
            queued = {job.job_id for job in self.server.queue}
            self._assign = {
                job_id: assigned
                for job_id, assigned in self._assign.items()
                if job_id in queued
            }
        topo = self.cluster.topology_version
        if self._capable_topology != topo:
            self._capable_topology = topo
            self._capable.clear()
        shards = self.shard_map.shards
        loads = [0] * len(shards)
        routed: list[list[str]] = [[] for _ in shards]
        sids: list[int | None] = []
        assign = self._assign
        for job in ordered:
            job_id = job.job_id
            req = job.request
            assigned = assign.get(job_id)
            if (
                assigned is None
                or assigned[0] is not req
                or assigned[2] != topo
            ):
                assigned = self._assign_shard(job_id, req, assigned, loads, topo)
                if assigned is None:
                    sids.append(None)
                    continue
            # else: assignment sticky, request object unchanged (qalter
            # rebinds it) and topology unchanged since the assignment was
            # validated — no capability lookup needed
            sid = assigned[1]
            loads[sid] += assigned[3]
            routed[sid].append(job_id)
            sids.append(sid)
        return sids, routed

    def _assign_shard(
        self,
        job_id: str,
        req: ResourceRequest,
        assigned: tuple | None,
        loads: list[int],
        topo: int,
    ) -> tuple | None:
        """(Re)validate or make one job's sticky shard assignment."""
        req_key = (req.cores, req.nodes, req.ppn)
        memo = self._capable.get(req_key)
        if memo is None:
            capable = self.shard_map.capable_shards(self.cluster, req)
            memo = (capable, frozenset(s.index for s in capable))
            self._capable[req_key] = memo
        capable, capable_ids = memo
        if not capable:
            return None
        sid = assigned[1] if assigned is not None else None
        if sid is None or sid not in capable_ids:
            # least-loaded assignment; a vanished shard (node failures
            # shrank its capacity below the request) re-routes here
            sid = min(capable, key=lambda s: (loads[s.index], s.index)).index
        assigned = self._assign[job_id] = (req, sid, topo, req.total_cores)
        return assigned

    def started(self, job_id: str) -> None:
        """The job left the queue: its assignment is spent."""
        self._assign.pop(job_id, None)

    # -- plans that outlive their pass ----------------------------------
    def resources(self, sid: int) -> tuple[int, int]:
        """Resource half of a shard's fingerprint.

        The shard version counter covers every claim, unforeseen release
        and node event on the shard's nodes (a foreseen release moves
        ``cluster.shard_releases`` instead, R7); the server's alter epoch
        covers ``qalter``, which changes what a queued job asks for under
        an unchanged id.  The epoch is global, so a ``qalter`` re-plans every
        shard once, not only the shard its job is routed to
        (docs/PERFORMANCE.md, "Kept shard plans").
        """
        return (self.cluster.shard_versions[sid], self.server.alter_epoch)

    def match(
        self, routed: list[list[str]], now: float, reuse: bool
    ) -> list[ShardPlan]:
        """This pass's record per shard: the kept plan where it still
        holds (and ``reuse`` allows), a fresh one elsewhere.

        A kept plan whose resources are unchanged and whose reservations
        all lie ahead is replayed, in walk order, for the jobs it covers:
        the whole routed queue (the shard is skipped) or, R1, a strict
        prefix of it — then only the new tail is planned, on the plan's own
        profile brought to now.  After a foreseen release (R7) it covers
        less (:meth:`_foreseen`), and a reservation due now is replayed as
        a start.
        """
        if not reuse:
            return [ShardPlan(sid) for sid in range(len(routed))]
        plans = []
        for sid, ids in enumerate(routed):
            resources = self.resources(sid)
            releases = self.cluster.shard_releases[sid]
            queue = tuple(ids)
            plan = self.plans.get(sid)
            covered = None
            if (
                plan is not None
                and plan.resources == resources
                and queue[: len(plan.queue)] == plan.queue
                and (plan.profile is not None or len(plan.queue) == len(queue))
            ):
                due = plan.min_res_start
                if plan.releases == releases:
                    # a reservation that has come due voids the plan
                    if due is None or now < due:
                        covered = len(plan.queue)
                elif due is None or now <= due:
                    covered = self._foreseen(plan)
            if covered is None:
                plan = ShardPlan(sid, resources, queue, releases)
            else:
                plan.skipped = covered == len(queue) and due != now
                if not plan.skipped:
                    plan.profile.advance_to(now)
                plan.replay_left = covered
                plan.queue = queue
                plan.releases = releases
                plan.overlapped = False
            plans.append(plan)
        return plans

    def _foreseen(self, plan: ShardPlan) -> int:
        """R7a: how much of a kept plan survives releases it foresaw.

        The plan covers its queue up to the last reserved job, and short of
        the first moldable one: a job blocked behind the reservations may
        fit the freed cores now, a moldable job may mold into them.  The
        jobs past the cut lose what the plan held for them and are walked
        again; the earliest reservation is re-derived in walk order as the
        covered jobs are replayed.  Returns the number of covered jobs.
        """
        queue = plan.queue
        reserved = plan.reserved
        cut = len(queue)
        while cut and queue[cut - 1] not in reserved:
            cut -= 1
        if plan.moldable:
            cut = next(
                (i for i, job_id in enumerate(queue[:cut]) if job_id in plan.moldable),
                cut,
            )
        for job_id in queue[cut:]:
            plan.blocked.discard(job_id)
            reservation = reserved.pop(job_id, None)
            if reservation is not None:
                start, alloc = reservation
                end = start + self.server.jobs[job_id].walltime
                plan.profile.cancel_claim(start, end, alloc)
                plan.res_count -= 1
        plan.min_res_start = None
        return cut

    def file(self, plans: list[ShardPlan], keep: bool) -> tuple[int, bool]:
        """Keep the plans the next pass may start from; returns how many
        shards this pass skipped and whether *every* plan was kept — then
        a pass over the same queue at this timestamp replays them all (R4).

        R2/R3: a start that precedes every reservation of its shard, or
        whose claim ends by the earliest of them, leaves exactly the plan
        the echo pass would rebuild — it is filed under the fingerprint
        that pass will compute.  A start reaching into a reservation
        window drops the shard's plan.
        """
        if not keep:
            self.plans.clear()
            return 0, False
        skipped = 0
        kept_all = True
        for plan in plans:
            if plan.skipped:
                skipped += 1
            elif plan.overlapped:
                self.plans.pop(plan.sid, None)
                kept_all = False
            else:
                if plan.resources is None:
                    plan.resources = self.resources(plan.sid)
                    plan.releases = self.cluster.shard_releases[plan.sid]
                self.plans[plan.sid] = plan
        return skipped, kept_all
