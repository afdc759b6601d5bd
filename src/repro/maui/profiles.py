"""Availability profiles per planning view, kept current by what changed.

A *view* is what a pass plans on.  The static pass plans per
:class:`~repro.maui.shards.SchedulerShard` of :attr:`ViewProfiles.shard_map`;
the delay measurement and ``explain`` plan on the static-partition view,
the merge of every shard's view (:meth:`ViewProfiles.build_static`); any
other view — a partitions tuple, or ``None`` for all nodes (the negotiated
request's estimate) — is built from scratch.

Per shard :class:`ViewProfiles` keeps a *base*: the shard's profile as of
its last advance (free cores then, plus each running job's release at its
walltime end) and the footprint of every running job it holds.
``Server.on_cores`` reports each change of a job's cores to :meth:`note`,
which files the job with the bases it concerns; the next build brings a
base forward by those jobs alone.  Every build hands out a private copy,
because every caller mutates its working profile with hypothetical claims.
"""

from __future__ import annotations

from repro.cluster.allocation import Allocation
from repro.cluster.machine import Cluster
from repro.cluster.profile import AvailabilityProfile
from repro.jobs.job import Job
from repro.maui.config import MauiConfig
from repro.maui.partition import static_partitions
from repro.maui.shards import SchedulerShard, ShardMap
from repro.rms.server import Server
from repro.sim.engine import Engine

__all__ = ["ViewProfiles"]


def _footprint(job: Job, pos: dict[int, int]) -> tuple[Allocation, float] | None:
    """What running ``job`` holds of a view whose node positions are
    ``pos``: its cores inside the view and the walltime end that releases
    them; None when it holds nothing there."""
    alloc = job.allocation
    inside = {n: c for n, c in alloc.items() if n in pos}
    if not inside:
        return None
    if len(inside) < len(alloc):
        alloc = Allocation._trusted(inside)
    return alloc, job.walltime_end


class _Base:
    """One shard's profile as of its last advance, and the jobs that
    changed since."""

    __slots__ = ("profile", "held", "pending", "topology")

    def __init__(
        self, profile: AvailabilityProfile,
        held: dict[str, tuple[Allocation, float]], topology: int,
    ) -> None:
        self.profile = profile
        #: job id -> :func:`_footprint` of each running job the profile holds
        self.held = held
        #: job id -> job whose cores changed since the last advance, and
        #: which the profile holds or which runs on the shard
        self.pending: dict[str, Job] = {}
        #: ``cluster.topology_version`` the profile's node set was read at
        self.topology = topology


class ViewProfiles:
    """The scheduler's profiles and their maintenance; counts its work in
    the three ``profile_*`` entries of the ``stats`` dict."""

    def __init__(
        self, engine: Engine, cluster: Cluster, server: Server,
        config: MauiConfig, stats: dict, profiler=None,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.server = server
        self.config = config
        self.stats = stats
        self._prof = profiler
        #: the static pass's views: the static-partition nodes in shards
        self.shard_map = ShardMap.build(
            cluster, config.scheduler_shards, partitions=static_partitions(config)
        )
        #: shard index -> its base
        self._bases: dict[int, _Base] = {}

    def state(self) -> tuple[int, int, float]:
        """The ``(server state, cluster state, sim time)`` snapshot a
        profile is a pure function of.  Both state counters are monotone,
        so comparing two snapshots detects staleness in O(1): the
        fingerprint a ledger verdict carries to name the profile it was
        made on."""
        return (self.server.state_version, self.cluster.version, self.engine.now)

    def forget_bases(self) -> None:
        """The node set changed: the bases were laid out on the old one
        and need a from-scratch build."""
        self._bases.clear()

    def note(self, job: Job) -> None:
        """``job``'s cores changed (``Server.on_cores``).

        Each base that holds the job, or on whose nodes it now runs,
        applies the change at its next advance.  A job that leaves a base
        that does not hold it is dropped there: a base's pending jobs are
        the jobs it holds plus the jobs running on it, so a base no build
        asks for keeps none of the jobs that finish meanwhile.
        """
        job_id = job.job_id
        active = job.is_active
        for base in self._bases.values():
            if job_id in base.held:
                base.pending[job_id] = job
            elif not active:
                base.pending.pop(job_id, None)
            elif not base.profile._pos.keys().isdisjoint(job.allocation):
                base.pending[job_id] = job

    def build(self, view) -> AvailabilityProfile:
        """Current + future availability over ``view``, a private copy: a
        shard's base brought forward, or any other view from scratch."""
        prof = self._prof
        if prof is not None:
            prof.begin("profile_build")
        if isinstance(view, SchedulerShard):
            profile = self._current(view).copy()
        else:
            self.stats["profile_builds"] += 1
            profile = self.build_uncached(view)
        if prof is not None:
            prof.end()
        return profile

    def build_static(self) -> AvailabilityProfile:
        """Current + future availability over the static partitions, a
        private copy: the merge of every shard's base (at one shard, a copy
        of it).  Shards are contiguous runs of the ascending node order, so
        node order and step function are those of
        ``build_uncached(static_partitions(config))``."""
        prof = self._prof
        if prof is not None:
            prof.begin("profile_build")
        profile = AvailabilityProfile.merge(
            [self._current(shard) for shard in self.shard_map.shards]
        )
        if prof is not None:
            prof.end()
        return profile

    def _current(self, shard: SchedulerShard) -> AvailabilityProfile:
        """The shard's base brought forward to now, or a from-scratch
        build, which becomes the base."""
        profile = self._advance(shard)
        if profile is not None:
            self.stats["profile_advances"] += 1
            return profile
        self.stats["profile_builds"] += 1
        profile, held = self._scratch(shard)
        if self._incremental_usable():
            self._bases[shard.index] = _Base(
                profile, held, self.cluster.topology_version
            )
        return profile

    def _incremental_usable(self) -> bool:
        # admin reservations interact with running jobs non-locally (a
        # reservation claim skipped because drained cores were busy must be
        # retried when those jobs finish) — keep those configs on the
        # always-rebuild path
        return not self.config.admin_reservations

    def _advance(self, shard: SchedulerShard) -> AvailabilityProfile | None:
        """Bring the shard's base forward to now by its pending jobs.

        The base is clipped to the current sim time.  Then, departures
        first: a footprint the base holds and the job no longer has (it
        left, shrank, grew or restarted) gives its cores back over
        ``[now, walltime end)`` with one ``cancel_claim`` — after its
        walltime end the base already has them free — and a footprint the
        job has now and the base does not hold is claimed over the same
        window.  The cost is the jobs that changed.  A departure can leave
        *neutral* breakpoints behind (equal adjacent rows); those never
        change the step function, window minima or the earliest feasible
        start, so every query answers as on a from-scratch build (pinned by
        ``tests/test_profile_equivalence.py``).

        Returns None (caller builds from scratch) when the shard has no
        base, or when the result fails to reconcile with the cluster: free
        cores now must equal the cluster's, on the node set it was laid out
        on — the self-check that keeps this path safe.
        """
        base = self._bases.get(shard.index)
        if base is None:
            return None
        profile, held = base.profile, base.held
        pending, base.pending = base.pending, {}
        now = self.engine.now
        pos = profile._pos
        try:
            profile.advance_to(now)
            arrivals = []
            for job_id, job in pending.items():
                old = held.pop(job_id, None)
                new = _footprint(job, pos) if job.is_active else None
                if new is not None:
                    held[job_id] = new
                    if new == old:
                        continue
                    arrivals.append(new)
                if old is not None and old[1] > now:
                    profile.cancel_claim(now, old[1], old[0])
            for alloc, end in arrivals:
                profile.add_claim(now, end, alloc)
        except ValueError:
            del self._bases[shard.index]
            self.stats["profile_advance_fallbacks"] += 1
            return None
        # reconcile: what every from-scratch build satisfies by construction
        free = self.cluster.node_free
        if base.topology != self.cluster.topology_version or (
            profile.free_now() != [free[n] for n in profile._nodes]
        ):
            del self._bases[shard.index]
            self.stats["profile_advance_fallbacks"] += 1
            return None
        return profile

    def build_uncached(self, view) -> AvailabilityProfile:
        """Current + future availability over ``view``, from scratch."""
        return self._scratch(view)[0]

    def _scratch(
        self, view
    ) -> tuple[AvailabilityProfile, dict[str, tuple[Allocation, float]]]:
        """A from-scratch build over ``view`` and the footprints it holds.

        Running jobs release their full (possibly expanded) allocation at
        their walltime end — the scheduler plans with walltimes, not with
        the actual completion times it cannot know.
        """
        now = self.engine.now
        if isinstance(view, SchedulerShard):
            free = self.cluster.free_by_node(nodes=view.nodes)
        else:
            free = self.cluster.free_by_node(partitions=view)
        capacity = {
            n.index: n.cores for n in self.cluster.nodes if n.index in free
        }
        profile = AvailabilityProfile(sorted(free), free, now, capacity)
        pos = profile._pos
        held: dict[str, tuple[Allocation, float]] = {}
        for job in self.server.active_jobs():
            assert job.allocation is not None
            assert job.walltime_end > now, f"{job.job_id} past walltime yet active"
            entry = _footprint(job, pos)
            if entry is not None:
                held[job.job_id] = entry
                profile.add_release(entry[1], entry[0])
        for reservation in self.config.admin_reservations:
            if reservation.end <= now:
                continue
            inside = {
                n: c for n, c in reservation.cores_by_node.items() if n in free
            }
            if not inside:
                continue
            try:
                profile.add_claim(
                    max(reservation.start, now), reservation.end, Allocation(inside)
                )
            except ValueError:
                # the reserved cores are (partly) occupied by running jobs:
                # the operator drains them; the profile already shows them
                # busy until those jobs' walltime ends
                pass
        return profile, held
