"""Availability profiles per planning view, built once and then advanced.

A *view* is what a pass plans on: a partitions tuple (``None`` for all
nodes) or a :class:`~repro.maui.shards.SchedulerShard`.
:class:`ViewProfiles` hands out private working copies of a view's
:class:`~repro.cluster.profile.AvailabilityProfile` and keeps what makes
that cheap: per view the last built profile plus the active-job footprints
it encodes, so a stale one is brought up to date by claim/release deltas
instead of a rebuild.
"""

from __future__ import annotations

import math

from repro.cluster.allocation import Allocation
from repro.cluster.machine import Cluster
from repro.cluster.profile import AvailabilityProfile
from repro.maui.config import MauiConfig
from repro.maui.shards import SchedulerShard
from repro.rms.server import Server
from repro.sim.engine import Engine

__all__ = ["ViewProfiles"]


class ViewProfiles:
    """The scheduler's profiles and their incremental maintenance; counts
    its work in the three ``profile_*`` entries of the ``stats`` dict."""

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
        #: per view: the last built profile plus the active-job footprints
        #: ``job_id -> (alloc items inside the view, walltime end)`` it
        #: encodes — the diff source for the next advance
        self._bases: dict[
            object, tuple[AvailabilityProfile, dict[str, tuple[tuple, float]]]
        ] = {}
        #: per view key: job_id -> (allocation, footprint inside the view),
        #: the identity-keyed memo behind :meth:`_active_footprints`
        self._footprint_memos: dict = {}

    def state(self) -> tuple[int, int, float]:
        """The ``(server state, cluster state, sim time)`` snapshot a
        profile is a pure function of.  Both state counters are monotone,
        so comparing two snapshots detects staleness in O(1): the
        fingerprint a ledger verdict carries to name the profile it was
        made on."""
        return (self.server.state_version, self.cluster.version, self.engine.now)

    def forget_bases(self) -> None:
        """The node set changed: the incremental bases were laid out on the
        old one and need a from-scratch build (the diff only covers
        allocations)."""
        self._bases.clear()
        self._footprint_memos.clear()

    @staticmethod
    def _view_key(view):
        """Key of a view's base: a partitions tuple, None (all nodes), or a
        shard's ``cache_key`` (it carries an int, so it can never collide
        with the all-string partition tuples)."""
        return view.cache_key if isinstance(view, SchedulerShard) else view

    def _view_free(self, view) -> dict[int, int]:
        """The cluster's free map over a view."""
        if isinstance(view, SchedulerShard):
            return self.cluster.free_for_nodes(view.nodes)
        return self.cluster.free_by_node(partitions=view)

    def build(self, view) -> AvailabilityProfile:
        """Current + future availability over ``view``.

        Hands out a :meth:`~AvailabilityProfile.copy` of the view's base
        because every caller mutates its working profile with hypothetical
        claims.
        """
        prof = self._prof
        if prof is not None:
            prof.begin("profile_build")
        profile = self._advance(view)
        if profile is None:
            self.stats["profile_builds"] += 1
            profile = self.build_uncached(view)
            if self._incremental_usable():
                key = self._view_key(view)
                self._bases[key] = (
                    profile, self._active_footprints(set(profile._nodes), key)
                )
        else:
            self.stats["profile_advances"] += 1
        working = profile.copy()
        if prof is not None:
            prof.end()
        return working

    def _incremental_usable(self) -> bool:
        # admin reservations interact with running jobs non-locally (a
        # reservation claim skipped because drained cores were busy must be
        # retried when those jobs finish) — keep those configs on the
        # always-rebuild path
        return not self.config.admin_reservations

    def _active_footprints(
        self, nodes: set[int], view_key
    ) -> dict[str, tuple[tuple, float]]:
        """What each active job contributes to a profile over ``nodes``.

        The node intersection is a pure function of the (immutable)
        allocation, so per view it is memoized on allocation identity —
        expansion rebinds ``job.allocation`` and always misses.  Rebuilding
        the per-view memo dict each call prunes finished jobs for free.
        """
        snap: dict[str, tuple[tuple, float]] = {}
        memo = self._footprint_memos.get(view_key, {})
        fresh: dict = {}
        for job in self.server.active_jobs():
            alloc = job.allocation
            assert alloc is not None
            cached = memo.get(job.job_id)
            if cached is None or cached[0] is not alloc:
                inside = tuple(
                    sorted((n, c) for n, c in alloc.items() if n in nodes)
                )
                cached = (alloc, inside)
            fresh[job.job_id] = cached
            if cached[1]:
                snap[job.job_id] = (cached[1], job.walltime_end)
        self._footprint_memos[view_key] = fresh
        return snap

    def _advance(self, view) -> AvailabilityProfile | None:
        """Bring the view's base profile up to date by claim/release deltas.

        The base encodes "free cores now + future releases of these active
        jobs" as of the previous snapshot.  Advancing clips the timeline to
        the current sim time, then per job that departed (or changed shape/
        walltime) cancels its scheduled future release and frees its cores
        now, and per job that arrived claims its window — O(changed jobs)
        slice updates instead of an O(active jobs) rebuild.  Departed jobs
        can leave *neutral* breakpoints behind (equal adjacent rows); those
        never change the step function, window minima, or the earliest
        feasible start, so every query stays bit-identical to a from-scratch
        build (pinned by ``tests/test_profile_equivalence.py``).

        Returns None (caller rebuilds) for admin-reservation configs, when
        no base exists, or when the post-advance free vector fails to
        reconcile with the cluster — the self-check that keeps this path safe.
        """
        if not self._incremental_usable():
            return None
        key = self._view_key(view)
        base = self._bases.get(key)
        if base is None:
            return None
        profile, old_snap = base
        now = self.engine.now
        new_snap = self._active_footprints(set(profile._nodes), key)
        try:
            profile.advance_to(now)
            for job_id, (footprint, wt_end) in old_snap.items():
                if new_snap.get(job_id) == (footprint, wt_end):
                    continue
                if wt_end <= now:
                    # the scheduled release is already fully in effect
                    continue
                alloc = Allocation(dict(footprint))
                # cancel the future release first, then free the cores now —
                # this order keeps both atomic checks satisfied
                profile.add_claim(wt_end, math.inf, alloc)
                profile.add_release(now, alloc)
            for job_id, entry in new_snap.items():
                if old_snap.get(job_id) == entry:
                    continue
                footprint, wt_end = entry
                profile.add_claim(now, wt_end, Allocation(dict(footprint)))
        except ValueError:
            self._bases.pop(key, None)
            self.stats["profile_advance_fallbacks"] += 1
            return None
        # reconcile: free cores at `now` must equal the cluster's — the
        # invariant every from-scratch build satisfies by construction.
        # Compared in node order: a node known to one side only shows up
        # as a length difference or a None
        free = self._view_free(view)
        nodes = profile._nodes
        if len(free) != len(nodes) or profile.free_now() != [
            free.get(n) for n in nodes
        ]:
            self._bases.pop(key, None)
            self.stats["profile_advance_fallbacks"] += 1
            return None
        self._bases[key] = (profile, new_snap)
        return profile

    def build_uncached(self, view) -> AvailabilityProfile:
        """Current + future availability over ``view``, from scratch.

        Running jobs release their full (possibly expanded) allocation at
        their walltime end — the scheduler plans with walltimes, not with
        the actual completion times it cannot know.
        """
        now = self.engine.now
        free = self._view_free(view)
        capacity = {
            n.index: n.cores for n in self.cluster.nodes if n.index in free
        }
        profile = AvailabilityProfile(sorted(free), free, now, capacity)
        for job in self.server.active_jobs():
            assert job.allocation is not None
            assert job.walltime_end > now, f"{job.job_id} past walltime yet active"
            inside = {n: c for n, c in job.allocation.items() if n in free}
            if inside:
                profile.add_release(job.walltime_end, Allocation(inside))
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
        return profile
