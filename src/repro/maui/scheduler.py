"""The extended Maui scheduler (paper Algorithms 1 and 2).

One :class:`MauiScheduler` instance attaches to a server and runs a
scheduling iteration whenever job or resource state changes (Maui wake-up
condition (i)), optionally also on a periodic timer.  Each iteration:

1. updates statistics (fairshare usage accrual, DFS interval roll-over);
2. selects and prioritises eligible static jobs and — separately, in FIFO
   order — eligible dynamic requests;
3. for every dynamic request: tries to allocate idle resources (dynamic
   partition first if enabled, preemptible resources last), measures the
   delays a grant would inflict on the planned queue, asks the dynamic
   fairness policies for permission, and grants or rejects;
4. starts static jobs in priority order, creating reservations for the top
   ``ReservationDepth`` blocked jobs;
5. backfills the remaining queue (suspended while an ESP Z-job waits).

With ``dynamic_enabled=False`` the iteration degrades exactly to the
original Algorithm 1 and every dynamic request is rejected — that is the
paper's "Static" baseline configuration.
"""

from __future__ import annotations

import logging
import math

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.profile import AvailabilityProfile, NoFitError
from repro.jobs.job import Job
from repro.jobs.queue import DynRequest
from repro.maui.config import MauiConfig
from repro.maui.delay import measure_delays
from repro.maui.fairness import DFSLedger
from repro.maui.partition import find_dynamic_allocation, static_partitions
from repro.maui.preemption import plan_preemption
from repro.maui.priority import FairshareTracker, Prioritizer
from repro.maui.reservations import StaticPlan, plan_static
from repro.maui.shards import SchedulerShard, ShardMap
from repro.obs.clock import perf_ns as _perf_ns
from repro.rms.server import Server
from repro.sim.engine import Engine, PRIORITY_SCHEDULER
from repro.sim.events import EventKind

__all__ = ["MauiScheduler"]

log = logging.getLogger("repro.maui.scheduler")


class MauiScheduler:
    """Event-driven scheduler daemon."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        server: Server,
        config: MauiConfig | None = None,
        *,
        telemetry=None,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.server = server
        self.config = config if config is not None else MauiConfig()
        self.trace = server.trace
        #: optional :class:`repro.obs.Telemetry` (defaults to the server's)
        self.telemetry = telemetry if telemetry is not None else server.telemetry
        self._obs = None
        #: optional :class:`repro.obs.ledger.DecisionLedger`; None keeps
        #: every ledger hook a single attribute-is-None check (off path)
        self._ledger = None
        #: optional :class:`repro.obs.perf.PhaseProfiler`; same discipline —
        #: every phase hook on the disabled path is one is-None check
        self._prof = None
        #: optional :class:`repro.obs.fairness.FairnessObservatory`; fed
        #: from the statistics update — same single-is-None hook discipline
        self._fair = None
        if self.telemetry is not None and self.telemetry.enabled:
            from repro.obs.instruments import SchedulerInstruments

            self._obs = SchedulerInstruments(self.telemetry)
            self._ledger = getattr(self.telemetry, "ledger", None)
            self._prof = getattr(self.telemetry, "profiler", None)
            self._fair = getattr(self.telemetry, "fairness", None)
        self.fairshare = FairshareTracker(
            self.config.weights.fairshare_interval,
            self.config.weights.fairshare_decay,
            start_time=engine.now,
        )
        self.prioritizer = Prioritizer(self.config.weights, self.fairshare)
        self.dfs = DFSLedger(self.config.dfs, start_time=engine.now)
        self._wake_pending = False
        self._last_stats_time = engine.now
        #: cumulative counters for reports and tests
        self.stats = {
            "iterations": 0,
            "iterations_skipped": 0,
            "dyn_granted": 0,
            "dyn_rejected": 0,
            "dyn_rejected_fairness": 0,
            "dyn_rejected_resources": 0,
            "jobs_started": 0,
            "jobs_backfilled": 0,
            "reservations_created": 0,
            "preemptions": 0,
            "malleable_shrinks": 0,
            "jobs_molded": 0,
            "total_delay_charged": 0.0,
            "dyn_handle_seconds": 0.0,  # wall-clock cost of the dynamic path
            "profile_builds": 0,
            "profile_cache_hits": 0,
            "profile_advances": 0,
            "profile_advance_fallbacks": 0,
            "backfill_quick_rejects": 0,
            "shard_merges": 0,
            "shard_passes_skipped": 0,
        }
        #: per-partition scheduler sharding (:mod:`repro.maui.shards`): the
        #: static pass plans on shard-sized profiles; one shard is the whole
        #: static partition view
        self._shard_map = ShardMap.build(
            cluster,
            self.config.scheduler_shards,
            partitions=static_partitions(self.config),
        )
        if len(self._shard_map) > 1:
            cluster.install_shard_index(
                self._shard_map.node_to_shard, len(self._shard_map)
            )
        #: per-shard pass skip (multi-shard only): a shard whose cluster
        #: slice, routed queue and active-job walltimes are unchanged since
        #: its last planning pass — and whose earliest planned reservation
        #: is still in the future — reuses that pass's outcome instead of
        #: re-planning; the entry also keeps the shard's post-walk profile,
        #: so a queue that only grew at its tail plans the tail alone and
        #: starts that cross no reservation window keep the plan
        #: (:meth:`_start_static`).  Test reference, not a tuning option:
        #: the skip-off run is what tests/test_shards.py proves all of this
        #: sound against, and nothing in config or the CLI reaches it.
        self.shard_skip_enabled = True
        self._shard_pass_cache: dict[int, dict] = {}
        #: sticky job -> shard-index assignments, made least-loaded-first
        #: in deterministic pass order and kept while the job queues —
        #: stable routing is what keeps the per-shard routed tuples (and
        #: with them the pass-skip fingerprints) quiescent between passes.
        #: Deliberately NOT keyed on ``Job.seq``: that is a process-global
        #: counter and not stable across runs in one process.
        self._route_assign: dict[str, tuple] = {}
        self._route_memo: dict = {}
        self._route_memo_version = -1
        #: job_id -> (allocation, touched-shard tuple); allocations are
        #: immutable (expansion rebinds ``job.allocation``), so identity
        #: comparison detects any change — see :meth:`_shard_fingerprints`
        self._touched_memo: dict = {}
        #: ((shard versions, walltime epoch), {sid: active-sig tuple});
        #: every active-set or allocation change bumps a shard version and
        #: extensions bump the epoch, so an unchanged key proves the whole
        #: signature structure is current
        self._active_sig_cache: tuple | None = None
        #: availability-profile cache: one profile per partition view, valid
        #: for a single (server state, cluster state, sim time) snapshot
        self._profile_cache: dict[tuple[str, ...] | None, AvailabilityProfile] = {}
        self._profile_state: tuple[int, int, float] | None = None
        #: incremental profile maintenance: when the snapshot goes stale,
        #: the previous profile is advanced to the new time and the
        #: claim/release deltas of jobs that started/finished/changed since
        #: are applied, instead of rebuilding the matrix from scratch.
        #: Per partition view: the last built profile plus the active-job
        #: footprints ``job_id -> (alloc items inside the view, walltime end)``
        #: it encodes — the diff source for the next advance
        self._profile_bases: dict[
            tuple[str, ...] | None,
            tuple[AvailabilityProfile, dict[str, tuple[tuple, float]]],
        ] = {}
        #: per view key: job_id -> (allocation, footprint inside the view),
        #: the identity-keyed memo behind :meth:`_active_footprints`
        self._footprint_memos: dict = {}
        #: event-driven activation: wake-ups with no state change since the
        #: last full pass are skipped (statistics still accrue).  Test
        #: reference, not a tuning option: always-iterate is what
        #: tests/test_scheduler.py and tests/test_ledger.py prove the skip
        #: sound against, and nothing in config or the CLI reaches it.
        self.iteration_skip_enabled = True
        #: (server.state_version, cluster.version) at the *start* of the
        #: last full iteration — the quiescence fingerprint.  A pass that
        #: changed anything leaves the live counters past this snapshot and
        #: therefore never arms the skip.
        self._last_pass_state: tuple[int, int] | None = None
        #: set by time-anchored wakes (reservation boundaries, maintenance
        #: window edges) whose whole point is that *time*, not state, changed
        self._force_iteration = False
        #: delay-measurement context (profile, eligible ordering, baseline
        #: plan) shared by every dynamic request handled under one state
        self._delay_ctx: tuple | None = None
        #: pending wake at the next reservation boundary (Maui wake-up
        #: condition (ii)); rescheduled every iteration
        self._boundary_wake = None
        self._next_reservation_start: float | None = None
        if self.telemetry is not None:
            # sampled time series: the live replacements for post-hoc
            # trace reconstruction (utilization, depths, ledger levels)
            self.telemetry.add_source(
                "utilization", lambda: cluster.used_cores / cluster.total_cores
            )
            self.telemetry.add_source("busy_cores", lambda: cluster.used_cores)
            self.telemetry.add_source("queue_depth", lambda: len(server.queue))
            self.telemetry.add_source(
                "dyn_queue_depth", lambda: len(server.dyn_queue)
            )
            self.telemetry.add_source(
                "running_jobs", lambda: server.active_count
            )
            self.telemetry.add_source(
                "dfs_ledger_delay",
                lambda: {
                    f"{kind}:{name}": delay
                    for (kind, name), delay in self.dfs.snapshot().items()
                },
            )
        server.on_state_change = self.request_iteration
        server.on_node_event = self.handle_node_event
        if self.config.timer_interval is not None:
            self.engine.after(self.config.timer_interval, self._timer_tick)
        for reservation in self.config.admin_reservations:
            # both edges of a maintenance window are scheduling opportunities;
            # nothing else changes at an edge, so the wake must be forced
            for edge in (reservation.start, reservation.end):
                if edge > engine.now:
                    self.engine.at(edge, self._forced_wake)

    # ------------------------------------------------------------------
    # wake-up machinery
    # ------------------------------------------------------------------
    def request_iteration(self, force: bool = False) -> None:
        """Coalesced wake-up: at most one iteration is queued at a time.

        ``force`` marks wake-ups whose trigger is the passage of simulated
        time itself (reservation boundaries, maintenance-window edges): they
        must run a full iteration even though no state counter moved.
        """
        if force:
            self._force_iteration = True
        if self._wake_pending:
            return
        self._wake_pending = True
        self.engine.at(
            self.engine.now, self._run_iteration, priority=PRIORITY_SCHEDULER
        )

    def _forced_wake(self) -> None:
        self.request_iteration(force=True)

    def handle_node_event(self, node_index: int) -> None:
        """A node failed or recovered: re-plan on the new node set.

        Reservations (and the boundary wake derived from them) were laid
        out on the *old* node set — a reservation planned on a node that
        just died is unservable, and a recovered node may admit an earlier
        start.  Drop the stale boundary wake and force a full iteration so
        plans are rebuilt from the surviving nodes immediately.
        """
        if self._boundary_wake is not None:
            self._boundary_wake.cancel()
            self._boundary_wake = None
        self._next_reservation_start = None
        # the incremental bases were laid out on the old node set; a changed
        # set needs a from-scratch build (the diff only covers allocations)
        self._profile_bases.clear()
        self._footprint_memos.clear()
        # shard pass outcomes and capability routing were computed on the
        # old node set too
        self._shard_pass_cache.clear()
        self._route_memo.clear()
        self._route_memo_version = -1
        self._touched_memo.clear()
        self._active_sig_cache = None
        self.request_iteration(force=True)

    def _run_iteration(self) -> None:
        self._wake_pending = False
        force = self._force_iteration
        self._force_iteration = False
        if not force and self._quiescent():
            # Nothing a full pass could act on has changed: same job and
            # cluster state, no pending dynamic requests.  Statistics still
            # accrue (so fairshare sums and DFS interval rolls are
            # bit-identical to unconditional iteration), but profile
            # construction, prioritisation, planning and backfill are all
            # skipped — unless an accounting window rolls right now, which
            # decays usage and can reorder priorities without any version
            # bump, so the pass is no longer a provable no-op.
            fairshare_window = self.fairshare.window_start
            dfs_window = self.dfs.interval_start
            self._update_statistics(self.engine.now)
            if (
                self.fairshare.window_start == fairshare_window
                and self.dfs.interval_start == dfs_window
            ):
                self.stats["iterations_skipped"] += 1
                if self._obs is not None:
                    self._obs.note_skip(self.stats["iterations_skipped"])
                log.debug(
                    "iteration skipped t=%.1f (state unchanged)", self.engine.now
                )
                return
        self.iteration()

    def _quiescent(self) -> bool:
        """No schedulable change since the last full pass?

        Conservative on purpose: any pending dynamic request (including
        negotiated requests awaiting fresh availability estimates) forces a
        full iteration, as does any bump of either monotone version counter.
        Time-only effects — a planned reservation becoming startable, a
        maintenance window opening — arrive as *forced* wakes and never
        reach this check.
        """
        return (
            self.iteration_skip_enabled
            and self._last_pass_state is not None
            and not self.server.dyn_queue
            and self._last_pass_state
            == (self.server.state_version, self.cluster.version)
        )

    def _timer_tick(self) -> None:
        self.request_iteration()
        self.engine.after(self.config.timer_interval, self._timer_tick)

    # ------------------------------------------------------------------
    # profile construction
    # ------------------------------------------------------------------
    @staticmethod
    def _view_key(view):
        """Cache key for a profile view: a partitions tuple, None (all
        nodes), or a :class:`SchedulerShard` (its ``cache_key`` carries an
        int, so it can never collide with the all-string partition tuples).
        """
        return view.cache_key if isinstance(view, SchedulerShard) else view

    def _view_free(self, view) -> dict[int, int]:
        """The cluster's free map over a profile view."""
        if isinstance(view, SchedulerShard):
            return self.cluster.free_for_nodes(view.nodes)
        return self.cluster.free_by_node(partitions=view)

    def _build_profile(self, view) -> AvailabilityProfile:
        """Current + future availability over the given view (cached).

        ``view`` is a partitions tuple (or None for all nodes), or a
        :class:`SchedulerShard` for the multi-shard static pass.  Profiles
        are pure functions of (server state, cluster allocation state,
        simulation time); both state counters are monotone, so a three-way
        snapshot comparison detects staleness in O(1).  A cache hit hands
        out a :meth:`~AvailabilityProfile.copy` because every caller mutates
        its working profile with hypothetical claims.
        """
        prof = self._prof
        if prof is None:
            return self._build_profile_cached(view)
        prof.begin("profile_build")
        try:
            return self._build_profile_cached(view)
        finally:
            prof.end()

    def _build_profile_cached(self, view) -> AvailabilityProfile:
        key = self._view_key(view)
        state = (self.server.state_version, self.cluster.version, self.engine.now)
        if state != self._profile_state:
            self._profile_state = state
            self._profile_cache.clear()
        cached = self._profile_cache.get(key)
        if cached is not None:
            self.stats["profile_cache_hits"] += 1
            return cached.copy()
        profile = self._advance_profile(view)
        if profile is None:
            self.stats["profile_builds"] += 1
            profile = self._build_profile_uncached(view)
            if self._incremental_usable():
                self._profile_bases[key] = (
                    profile, self._active_footprints(set(profile._nodes), key)
                )
        else:
            self.stats["profile_advances"] += 1
        self._profile_cache[key] = profile
        return profile.copy()

    def _incremental_usable(self) -> bool:
        # admin reservations interact with running jobs non-locally (a
        # reservation claim skipped because drained cores were busy must be
        # retried when those jobs finish) — keep those configs on the
        # always-rebuild path
        return not self.config.admin_reservations

    def _active_footprints(
        self, nodes: set[int], view_key=None
    ) -> dict[str, tuple[tuple, float]]:
        """What each active job contributes to a profile over ``nodes``.

        The node intersection is a pure function of the (immutable)
        allocation, so per view it is memoized on allocation identity —
        expansion rebinds ``job.allocation`` and always misses.  Walltime
        ends are read fresh every call (extensions mutate the job in
        place).  Rebuilding the per-view memo dict each call prunes
        finished jobs for free.
        """
        snap: dict[str, tuple[tuple, float]] = {}
        memo = self._footprint_memos.get(view_key) if view_key is not None else None
        fresh: dict = {}
        for job in self.server.active_jobs():
            alloc = job.allocation
            assert alloc is not None
            cached = memo.get(job.job_id) if memo is not None else None
            if cached is None or cached[0] is not alloc:
                inside = tuple(
                    sorted((n, c) for n, c in alloc.items() if n in nodes)
                )
                cached = (alloc, inside)
            fresh[job.job_id] = cached
            if cached[1]:
                snap[job.job_id] = (cached[1], job.walltime_end)
        if view_key is not None:
            self._footprint_memos[view_key] = fresh
        return snap

    def _advance_profile(self, view) -> AvailabilityProfile | None:
        """Bring the cached base profile up to date by claim/release deltas.

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
        base = self._profile_bases.get(key)
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
            self._profile_bases.pop(key, None)
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
            self._profile_bases.pop(key, None)
            self.stats["profile_advance_fallbacks"] += 1
            return None
        self._profile_bases[key] = (profile, new_snap)
        return profile

    def _build_profile_uncached(self, view) -> AvailabilityProfile:
        """Current + future availability over the given view.

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

    # ------------------------------------------------------------------
    # the iteration
    # ------------------------------------------------------------------
    def iteration(self) -> None:
        """One full scheduling cycle (Algorithm 2; Algorithm 1 if static)."""
        obs = self._obs
        if obs is not None:
            wall_start_ns = _perf_ns()
            events_before = self.trace.total_recorded
        now = self.engine.now
        prof = self._prof
        if prof is not None:
            prof.begin("sched_iteration", sim_time=now)
        self.stats["iterations"] += 1
        # fingerprint taken *before* the pass: an iteration that starts,
        # grants or preempts anything bumps the version counters past this
        # snapshot, so the echo wake-up it triggers re-runs a full pass
        # (a fresh start moves where blocked jobs' reservations land, which
        # can unlock further backfill — the fixpoint semantics of the
        # original always-iterate loop).  Only a pass that changed nothing
        # arms the skip, and re-running a provable no-op is safe.
        self._last_pass_state = (self.server.state_version, self.cluster.version)
        self._update_statistics(now)

        if self.server.dyn_queue:
            if self.config.dynamic_enabled:
                self._process_dynamic_requests(now)
            else:
                for dreq in list(self.server.dyn_queue):
                    self._reject(dreq, "dynamic allocation disabled", kind="resources")

        ledger = self._ledger
        exclusions: dict[str, tuple[str, str | None]] | None = (
            {} if ledger is not None else None
        )
        if prof is not None:
            prof.begin("prioritize")
        ordered = self._eligible_static(now, exclusions=exclusions)
        if prof is not None:
            prof.end()
        lockdown = self.server.queue.has_top_priority_job
        outcome: dict[str, tuple[str, str | None]] | None = (
            {} if ledger is not None else None
        )
        started, backfilled = self._start_static(ordered, now, lockdown, outcome=outcome)
        if prof is not None:
            prof.begin("wrap_up")
        if ledger is not None:
            # every still-queued job is classified exactly once per pass:
            # excluded (hold/dependency/throttle) or examined by the start
            # pass (reserved, plain queued, or blocked from backfilling)
            exclusions.update(outcome)
            ledger.observe_queue(now, exclusions)
        self._schedule_boundary_wake()

        self.trace.record(
            now,
            EventKind.SCHED_ITERATION,
            queued=len(self.server.queue),
            dynqueued=len(self.server.dyn_queue),
            started=started,
            backfilled=backfilled,
            lockdown=lockdown,
        )
        log.debug(
            "iteration t=%.1f queued=%d started=%d backfilled=%d",
            now, len(self.server.queue), started, backfilled,
        )
        if prof is not None:
            prof.end()
            prof.end()
        if obs is not None:
            obs.sync_stats(self.stats)
            obs.sync_ledger(self.dfs.snapshot())
            obs.end_iteration(
                now,
                _perf_ns() - wall_start_ns,
                self.trace.total_recorded - events_before,
            )

    def _eligible_static(
        self,
        now: float,
        exclusions: dict[str, tuple[str, str | None]] | None = None,
    ) -> list[Job]:
        """Queued jobs eligible for priority scheduling (Algorithm step 6).

        Three gates, all part of Maui's "minimum scheduling criterion":

        * holds — a held job stays queued but frozen until released;
        * dependencies — unmet dependencies keep the job queued but
          invisible to the planner; a failed ``afterok`` cancels it;
        * throttling — at most ``max_eligible_jobs_per_user`` queued jobs
          per user are considered, and a user at the
          ``max_running_jobs_per_user`` cap contributes no more eligible
          jobs than the cap leaves headroom for.

        ``exclusions`` (diagnostics/ledger only) collects
        ``job_id -> (cause, detail)`` for every job a gate filtered out,
        naming the specific hold kind, dependency target or throttle limit.
        """
        eligible: list[Job] = []
        for job in self.server.queue.snapshot():
            if job.hold is not None:
                if exclusions is not None:
                    exclusions[job.job_id] = (f"{job.hold}_held", f"{job.hold} hold")
                continue
            if self.server.dependency_failed(job):
                self.server.cancel_queued(job, reason="dependency failed")
                continue
            if self.server.dependency_satisfied(job):
                eligible.append(job)
            elif exclusions is not None:
                exclusions[job.job_id] = (
                    "dependency_held",
                    f"dependency on {job.depends_on}",
                )
        ordered = self.prioritizer.order(eligible, now)
        max_running = self.config.max_running_jobs_per_user
        max_eligible = self.config.max_eligible_jobs_per_user
        if max_running is None and max_eligible is None:
            return ordered
        running_count: dict[str, int] = {}
        for job in self.server.active_jobs():
            running_count[job.user] = running_count.get(job.user, 0) + 1
        taken: dict[str, int] = {}
        throttled: list[Job] = []
        for job in ordered:
            user_taken = taken.get(job.user, 0)
            if max_eligible is not None and user_taken >= max_eligible:
                if exclusions is not None:
                    exclusions[job.job_id] = (
                        "throttled",
                        f"throttled by max_eligible_jobs_per_user={max_eligible}",
                    )
                continue
            if max_running is not None:
                headroom = max_running - running_count.get(job.user, 0)
                if user_taken >= headroom:
                    if exclusions is not None:
                        exclusions[job.job_id] = (
                            "throttled",
                            f"throttled by max_running_jobs_per_user={max_running}",
                        )
                    continue
            taken[job.user] = user_taken + 1
            throttled.append(job)
        return throttled

    def _schedule_boundary_wake(self) -> None:
        """Wake at the earliest planned reservation start (condition (ii)).

        Normally job completions wake the scheduler in time to honour its
        reservations, but a reservation can begin at a boundary with no
        completion event — e.g. the end of a maintenance window.  One pending
        wake at the earliest future reservation start covers every such case.
        """
        if self._boundary_wake is not None:
            self._boundary_wake.cancel()
            self._boundary_wake = None
        if self._next_reservation_start is not None and (
            self._next_reservation_start > self.engine.now
        ):
            self._boundary_wake = self.engine.at(
                self._next_reservation_start, self._boundary_fire
            )

    def _boundary_fire(self) -> None:
        self._boundary_wake = None
        self.request_iteration(force=True)

    def _update_statistics(self, now: float) -> None:
        """Maui iteration step 4: accrue usage, roll accounting windows.

        Usage is accrued per job over its overlap with the window since the
        previous iteration — including jobs that finished *within* the
        window, whose final segment would otherwise never be charged.  The
        core count used is the job's latest allocation width (expansions are
        charged at full width from the window start; a second-order
        approximation that errs against the expanding user).
        """
        prof = self._prof
        if prof is not None:
            prof.begin("fairshare_update", sim_time=now)
        fair = self._fair
        last = self._last_stats_time
        if now > last:
            # Only running jobs plus those that finished since the previous
            # accrual window can overlap [last, now] — O(active) instead of
            # O(all jobs ever submitted).  Sorting by submission order keeps
            # the per-user floating-point sums bit-identical to the historic
            # full scan (which walked the submission-ordered job dict).
            chargeable = self.server.active_jobs()
            chargeable += self.server.drain_finished_for_stats()
            chargeable.sort(key=lambda j: j.seq)
            for job in chargeable:
                if job.start_time is None or job.allocation is None:
                    continue
                seg_start = max(last, job.start_time)
                seg_end = now if job.end_time is None else min(now, job.end_time)
                if seg_end > seg_start:
                    used = job.allocation.total_cores * (seg_end - seg_start)
                    self.fairshare.add_usage(job.user, used)
                    if fair is not None:
                        fair.accrue(job, used)
        self._last_stats_time = now
        self.fairshare.roll(now)
        if fair is not None:
            fair.sample(now, self.fairshare)
        if self.dfs.roll(now):
            self.trace.record(
                now, EventKind.DFS_INTERVAL_ROLL, interval_start=self.dfs.interval_start
            )
        if prof is not None:
            prof.end()

    # ------------------------------------------------------------------
    # dynamic requests (Algorithm 2 lines 11-24)
    # ------------------------------------------------------------------
    def _ordered_dynamic_requests(self) -> list[DynRequest]:
        """Pending dynamic requests in the configured service order."""
        pending = list(self.server.dyn_queue)
        order = self.config.dynamic_request_order
        if order == "fairshare":
            pending.sort(
                key=lambda d: (self.fairshare.usage(d.job.user), d.submit_time, d.job.seq)
            )
        elif order == "smallest_first":
            pending.sort(
                key=lambda d: (d.request.total_cores, d.submit_time, d.job.seq)
            )
        return pending

    def _delay_context(
        self, now: float
    ) -> tuple[AvailabilityProfile, list[Job], set[int], StaticPlan | None]:
        """Shared inputs for delay measurement, reused while state holds.

        The availability profile, the eligible static ordering, the
        static-partition node set and — crucially — the *baseline* priority
        plan are all pure functions of ``(server state, cluster state,
        now)``.  Consecutive dynamic requests resolved without a grant,
        preemption or shrink therefore reuse one baseline plan instead of
        re-planning the queue prefix from a fresh profile copy per request;
        any mutation bumps a version counter and rebuilds the context.
        """
        key = (self.server.state_version, self.cluster.version, now)
        ctx = self._delay_ctx
        if ctx is None or ctx[0] != key:
            prof = self._prof
            if prof is not None:
                prof.begin("delay_context")
            partitions = static_partitions(self.config)
            profile = self._build_profile(partitions)
            ordered = self._eligible_static(now)
            profile_nodes = set(self.cluster.free_by_node(partitions=partitions))
            baseline = (
                plan_static(ordered, profile.copy(), now, self.config.plan_depth)
                if ordered
                else None
            )
            ctx = (key, profile, ordered, profile_nodes, baseline)
            self._delay_ctx = ctx
            if prof is not None:
                prof.end()
        return ctx[1], ctx[2], ctx[3], ctx[4]

    def _process_dynamic_requests(self, now: float) -> None:
        obs = self._obs
        prof = self._prof
        if prof is not None:
            prof.begin("dyn_requests")
        for dreq in self._ordered_dynamic_requests():
            wall_start_ns = _perf_ns()
            events_before = self.trace.total_recorded if obs is not None else 0
            try:
                self._handle_dynamic_request(dreq, now)
            finally:
                wall_ns = _perf_ns() - wall_start_ns
                self.stats["dyn_handle_seconds"] += wall_ns / 1e9
                if obs is not None:
                    obs.end_dyn_handle(
                        now, wall_ns, self.trace.total_recorded - events_before
                    )
        if prof is not None:
            prof.end()

    def _handle_dynamic_request(self, dreq: DynRequest, now: float) -> None:
        if dreq.is_extension:
            self._handle_extension_request(dreq, now)
            return
        job = dreq.job
        assert job.start_time is not None
        claim_end = job.walltime_end
        if claim_end <= now:
            self._reject(dreq, "no walltime remaining", kind="resources")
            return
        blocked_nodes = self._admin_blocked_nodes(now, claim_end)
        alloc = find_dynamic_allocation(
            self.cluster, dreq.request, self.config, exclude_nodes=blocked_nodes
        )
        if alloc is None and self.config.malleable_steal_for_dynamic:
            alloc = self._steal_from_malleable(dreq)
        preempt_victims: list[Job] = []
        if alloc is None and self.config.preemption_for_dynamic:
            plan = plan_preemption(
                self.cluster, dreq.request, self.server.active_jobs()
            )
            if plan is None:
                self._deny(dreq, "insufficient resources", kind="resources", now=now)
                return
            preempt_victims = plan
        elif alloc is None:
            self._deny(dreq, "insufficient resources", kind="resources", now=now)
            return

        if preempt_victims:
            # Preemption reclaims opportunistic backfill, governed by Maui's
            # own preemption policy rather than DFS (which protects *queued*
            # jobs); the victims rejoin the queue and benefit from DFS there.
            for victim in preempt_victims:
                if self._ledger is not None:
                    self._ledger.note_preemption(
                        victim, dreq.job, now,
                        victim.allocation.total_cores if victim.allocation else 0,
                    )
                self.server.preempt_job(victim)
                self.stats["preemptions"] += 1
            alloc = find_dynamic_allocation(self.cluster, dreq.request, self.config)
            assert alloc is not None, "preemption plan did not free enough"
            self._grant(
                dreq, alloc, victims=[], charged=0.0,
                reason="preempted backfill",
                preempted=[v.job_id for v in preempt_victims],
            )
            return

        # measure delays against the queue as planned on the static partitions
        profile, ordered, profile_nodes, baseline = self._delay_context(now)
        claim_inside = Allocation(
            {n: c for n, c in alloc.items() if n in profile_nodes}
        )
        if claim_inside.is_empty:
            victims = []
        else:
            prof = self._prof
            if prof is not None:
                prof.begin("delay_measure")
            victims = measure_delays(
                ordered, profile, claim_inside, claim_end, now,
                self.config.plan_depth, baseline=baseline,
            )
            if prof is not None:
                prof.end()
        decision = self.dfs.evaluate(victims, job.user, now)
        if decision:
            charged = self.dfs.commit(victims, job.user)
            self._grant(
                dreq, alloc, victims=victims, charged=charged,
                reason=decision.reason,
            )
        else:
            self._deny(
                dreq, decision.reason, kind="fairness", now=now, victims=victims
            )

    def _steal_from_malleable(self, dreq: DynRequest) -> Allocation | None:
        """Shrink running malleable jobs until the request fits (or give up).

        Only flexible (``procs=N``) requests are served this way — a shaped
        request needs whole nodes, which piecemeal shrinking cannot promise.
        Jobs shrink latest-started-first so long-running malleable jobs keep
        their width longest.
        """
        if dreq.request.is_shaped:
            return None
        from repro.jobs.job import JobFlexibility

        candidates = [
            j
            for j in self.server.active_jobs()
            if j.flexibility is JobFlexibility.MALLEABLE and j is not dreq.job
        ]
        candidates.sort(key=lambda j: (-(j.start_time or 0.0), j.seq))
        partitions = static_partitions(self.config)
        for job in candidates:
            deficit = dreq.request.cores - sum(
                self.cluster.free_by_node(partitions=partitions).values()
            )
            if deficit <= 0:
                break
            released = self.server.request_shrink(job, deficit)
            if released:
                self.stats["malleable_shrinks"] += 1
        return find_dynamic_allocation(self.cluster, dreq.request, self.config)

    def _admin_blocked_nodes(self, start: float, end: float) -> set[int]:
        """Nodes with an admin reservation overlapping ``[start, end)``.

        A dynamic grant holds until the evolving job's walltime end, so a
        grant on these nodes would collide with the maintenance window.
        """
        blocked: set[int] = set()
        for reservation in self.config.admin_reservations:
            if reservation.overlaps(start, end):
                blocked.update(reservation.cores_by_node)
        return blocked

    def _handle_extension_request(self, dreq: DynRequest, now: float) -> None:
        """Walltime extension: the job keeps its own cores for longer.

        The hypothetical reservation is the job's current allocation over
        ``[old walltime end, new walltime end)`` — resources are trivially
        "available" (the job already holds them); only fairness can refuse.
        """
        job = dreq.job
        assert job.start_time is not None and job.allocation is not None
        assert dreq.extend_walltime is not None
        old_end = job.walltime_end
        new_end = old_end + dreq.extend_walltime
        profile, ordered, profile_nodes, baseline = self._delay_context(now)
        claim_inside = Allocation(
            {n: c for n, c in job.allocation.items() if n in profile_nodes}
        )
        if claim_inside.is_empty:
            victims = []
        else:
            prof = self._prof
            if prof is not None:
                prof.begin("delay_measure")
            victims = measure_delays(
                ordered,
                profile,
                claim_inside,
                new_end,
                now,
                self.config.plan_depth,
                claim_start=old_end,
                baseline=baseline,
            )
            if prof is not None:
                prof.end()
        decision = self.dfs.evaluate(victims, job.user, now)
        if decision:
            charged = self.dfs.commit(victims, job.user)
            self.stats["dyn_granted"] += 1
            self.stats["total_delay_charged"] += charged
            if self._ledger is not None:
                self._ledger.note_dyn_grant(
                    dreq, now, cores=0, victims=victims, charged=charged,
                    policy=self.config.dfs.policy.value, reason=decision.reason,
                    fingerprint=self._fingerprint(now),
                    extension=dreq.extend_walltime,
                )
            self.server.grant_walltime_extension(dreq)
        else:
            self.trace.record(
                now,
                EventKind.WALLTIME_EXTENSION_DENY,
                job_id=job.job_id,
                user=job.user,
                extension=dreq.extend_walltime,
                reason=decision.reason,
            )
            self._reject(dreq, decision.reason, kind="fairness", victims=victims)

    def _fingerprint(self, now: float) -> tuple[int, int, float]:
        """Availability-profile state fingerprint: the cache key identifying
        the exact ``(server state, cluster state, time)`` snapshot a verdict's
        profile was built from (see :meth:`_build_profile`)."""
        return (self.server.state_version, self.cluster.version, now)

    def _grant(
        self,
        dreq,
        alloc,
        *,
        victims,
        charged: float,
        reason: str = "",
        preempted: list[str] | None = None,
    ) -> None:
        if self._ledger is not None:
            self._ledger.note_dyn_grant(
                dreq, self.engine.now, cores=alloc.total_cores, victims=victims,
                charged=charged, policy=self.config.dfs.policy.value,
                reason=reason, fingerprint=self._fingerprint(self.engine.now),
                preempted=preempted,
            )
        self.stats["dyn_granted"] += 1
        self.stats["total_delay_charged"] += charged
        self.server.grant_dynamic(dreq, alloc)

    def _reject(self, dreq, reason: str, *, kind: str, victims=()) -> None:
        if self._ledger is not None:
            self._ledger.note_dyn_deny(
                dreq, self.engine.now, reason=reason, deny_kind=kind,
                victims=victims, policy=self.config.dfs.policy.value,
                fingerprint=self._fingerprint(self.engine.now),
            )
        self.stats["dyn_rejected"] += 1
        self.stats[f"dyn_rejected_{kind}"] += 1
        self.server.reject_dynamic(dreq, reason)

    def _deny(
        self,
        dreq: DynRequest,
        reason: str,
        *,
        kind: str,
        now: float,
        victims=(),
    ) -> None:
        """Reject — or, for a live negotiated request, defer with an estimate.

        Negotiated requests (Section III-C outlook) stay in the dynamic
        queue until their deadline; each denied attempt publishes the
        scheduler's current earliest-availability estimate so the
        application can plan around it.
        """
        if not dreq.negotiated or now >= (dreq.deadline or now):
            self._reject(dreq, reason, kind=kind, victims=victims)
            return
        profile = self._build_profile(None)
        try:
            available_at, _alloc = profile.earliest_fit(dreq.request, 1.0, after=now)
        except NoFitError:
            self._reject(
                dreq, f"{reason}; request can never fit", kind=kind, victims=victims
            )
            return
        if self._ledger is not None:
            self._ledger.note_dyn_defer(dreq, now, estimate=available_at)
        dreq.publish_estimate(available_at)

    # ------------------------------------------------------------------
    # static starts, reservations, backfill (Algorithm 2 lines 25-26)
    # ------------------------------------------------------------------
    def _waiting_on(
        self, start: float, reserved_ahead: list[tuple[str, float]]
    ) -> list[str]:
        """What a reservation at ``start`` waits on: running jobs that
        release by its start, plus earlier reservations of this pass due to
        start before it.  The ledger asks only when it writes a record."""
        return [
            j.job_id
            for j in self.server.active_jobs()
            if j.walltime_end <= start + 1e-9
        ] + [jid for jid, s in reserved_ahead if s <= start + 1e-9]

    def _route_queue(
        self, ordered: list[Job]
    ) -> tuple[list[int | None], list[list[str]]]:
        """Deterministic, run-stable shard for every queued job, in one walk.

        Returns ``(sids, routed)``: ``sids[i]`` is the shard index of
        ``ordered[i]`` and ``routed[sid]`` the ids of the jobs routed to
        that shard in pass order (the queue component of the shard's pass
        fingerprint, see :meth:`_shard_fingerprints`).

        Capable shards (UP capacity could ever satisfy the request) are
        memoized per request shape and cluster topology version (bumped
        only on node fail/recover — ordinary claims and releases never
        change UP capacity, so the memo survives them).  A first-seen job
        is assigned the capable shard with the fewest queued cores routed
        so far this pass (lowest index on ties) and keeps that assignment
        while it queues; the per-pass queued-core tally is recomputed from
        the priority walk each pass so departed jobs never leave stale
        weight behind.  ``None`` means no single shard can host the
        request (a full-machine ESP Z job, an oversized shape): the caller
        plans it on the cross-shard merge.
        """
        topo = self.cluster.topology_version
        if self._route_memo_version != topo:
            self._route_memo_version = topo
            self._route_memo.clear()
        shards = self._shard_map.shards
        loads = [0] * len(shards)
        routed: list[list[str]] = [[] for _ in shards]
        sids: list[int | None] = []
        assign = self._route_assign
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
        """(Re)validate or make one job's sticky shard assignment:
        ``(request, shard index, topology version, requested cores)``."""
        req_key = (req.cores, req.nodes, req.ppn)
        memo = self._route_memo.get(req_key)
        if memo is None:
            capable = self._shard_map.capable_shards(self.cluster, req)
            memo = (capable, frozenset(s.index for s in capable))
            self._route_memo[req_key] = memo
        capable, capable_ids = memo
        if not capable:
            return None
        sid = assigned[1] if assigned is not None else None
        if sid is None or sid not in capable_ids:
            # least-loaded assignment; a vanished shard (node failures
            # shrank its capacity below the request) re-routes here
            sid = min(capable, key=lambda s: (loads[s.index], s.index)).index
        assigned = self._route_assign[job_id] = (req, sid, topo, req.total_cores)
        return assigned

    def _shard_fingerprints(self, routed: list[list[str]]) -> dict[int, tuple]:
        """Per-shard quiescence fingerprint for the per-shard pass skip:
        ``(resource signature, routed tuple)``.

        A shard's planning outcome is a pure function of (its cluster
        slice, the walltime ends of active jobs touching its nodes, the
        jobs routed to it in pass order and what each asks for).  In the
        resource signature the shard version counter covers
        claims/releases/node events, the active-walltime signature covers
        walltime extensions, which move a shard's future releases without
        any cluster bump, and the server's alter epoch covers ``qalter``,
        which changes a queued job's request or walltime under an
        unchanged id; the routed tuple covers queue membership and
        relative priority order.  The two halves are compared separately:
        an unchanged resource signature with a routed tuple that only grew
        at its tail re-plans the tail alone (:meth:`_start_static`, R1).
        """
        shards = self._shard_map.shards
        versions = self.cluster.shard_versions
        # the active-signature structure is a pure function of (shard
        # versions, walltime epoch): any membership or allocation change
        # bumps a shard version via claim/release, and the one mutation
        # that moves a release without touching the cluster — a walltime
        # extension — bumps the server's epoch
        sig_key = (tuple(versions), self.server.walltime_epoch)
        cache = self._active_sig_cache
        if cache is not None and cache[0] == sig_key:
            active = cache[1]
        else:
            lists: dict[int, list[tuple[int, float]]] = {s.index: [] for s in shards}
            node_to_shard = self._shard_map.node_to_shard
            # touched shards are a pure function of the (immutable)
            # allocation; memoize per job on allocation identity —
            # expansion rebinds ``job.allocation`` so a changed set always
            # misses.  Rebuilding the memo dict every pass prunes finished
            # jobs for free.
            memo = self._touched_memo
            fresh: dict = {}
            for job in self.server.active_jobs():
                alloc = job.allocation
                assert alloc is not None
                cached = memo.get(job.job_id)
                if cached is None or cached[0] is not alloc:
                    touched = {
                        node_to_shard[n] for n in alloc if n in node_to_shard
                    }
                    cached = (alloc, tuple(sorted(touched)))
                fresh[job.job_id] = cached
                sig = (job.seq, job.walltime_end)
                for sid in cached[1]:
                    lists[sid].append(sig)
            self._touched_memo = fresh
            active = {sid: tuple(sigs) for sid, sigs in lists.items()}
            self._active_sig_cache = (sig_key, active)
        altered = self.server.alter_epoch
        return {
            s.index: (
                (versions[s.index], active[s.index], altered),
                tuple(routed[s.index]),
            )
            for s in shards
        }

    def _replay_cached(
        self,
        job_id: str,
        sid: int,
        blocked_ids: list[str],
        reserved_ahead: list[tuple[str, float]],
        outcome: dict[str, tuple[str, str | None]] | None,
    ) -> bool:
        """Replay one job's outcome from its shard's pass-cache entry,
        exactly as the cached plan decided and *in walk order*: a start of
        a planned shard between two replayed jobs must see the same
        ``hole_until``, ``jumped`` and ``waiting_on`` a full re-plan would
        give it.  No RESERVATION_CREATE record and no ``note_reservation``
        — the start is unchanged, which the ledger's own dedup would drop.
        Returns whether the job blocks (False: it can never fit and
        contributes nothing to the walk)."""
        cached = self._shard_pass_cache[sid]
        start = cached["reserved"].get(job_id)
        if start is not None:
            # still reserved: anchors the boundary wake
            if (
                self._next_reservation_start is None
                or start < self._next_reservation_start
            ):
                self._next_reservation_start = start
            if self._ledger is not None:
                reserved_ahead.append((job_id, start))
                if outcome is not None:
                    outcome[job_id] = (
                        "reservation_held",
                        f"reserved at t={start:.1f}",
                    )
        elif job_id not in cached["blocked"]:
            if outcome is not None:
                outcome[job_id] = ("queued_behind", "request can never fit")
            return False
        elif outcome is not None:
            # still blocked beyond the shard's reservation depth
            behind = f"behind {blocked_ids[0]}" if blocked_ids else None
            outcome[job_id] = ("queued_behind", behind)
        blocked_ids.append(job_id)
        return True

    def _start_static(
        self,
        ordered: list[Job],
        now: float,
        lockdown: bool,
        outcome: dict[str, tuple[str, str | None]] | None = None,
    ) -> tuple[int, int]:
        """Start jobs in priority order; reserve for the top blocked jobs.

        ``ReservationDepth`` bounds how many *blocked* jobs receive future
        reservations — it never prevents a fitting job from starting.  Jobs
        that start after any higher-priority job was passed over run out of
        order and are therefore marked (and counted) as backfill; with
        backfill disabled the pass stops at the first blocked job instead
        (strict priority order).  Returns (priority starts, backfill starts).

        ``outcome`` (ledger only) collects ``job_id -> (cause, detail)`` for
        every examined-but-not-started job plus everything left unexamined
        when the pass stops early.

        One global priority walk, per-shard plans (:mod:`repro.maui.shards`):
        each job plans against its shard's own working profile (built,
        cached and incrementally maintained per shard); spanning jobs plan
        on an explicit cross-shard merge and scatter their claims back into
        the shard profiles.  With one shard the single working profile is
        the whole static partition view and none of the routing,
        fingerprinting or skip machinery runs.
        """
        prof = self._prof
        if prof is not None:
            prof.begin("static_pass")
        shard_map = self._shard_map
        shards = shard_map.shards
        multi = len(shards) > 1
        config = self.config
        stats = self.stats
        ledger = self._ledger
        backfill_enabled = config.backfill_enabled

        if multi and not ordered:
            # empty queue: nothing to plan or block.  Clearing the pass
            # cache instead of re-fingerprinting is exact — a future
            # non-empty pass could never match an empty routed tuple, so
            # the stored entry would be dead weight either way.
            self._shard_pass_cache.clear()
            self._next_reservation_start = None
            if prof is not None:
                prof.end()
            return 0, 0

        fingerprint = self._fingerprint(now)

        if multi:
            sids, routed = self._route_queue(ordered)
        else:
            sids = [0] * len(ordered)

        # Per-shard skip preconditions.  Soundness rests on profiles being
        # release-only between state changes (free cores non-decreasing in
        # time, so fits/earliest-fit outcomes are time-stable until the
        # earliest planned reservation start); spanning jobs, lockdown,
        # disabled backfill and admin reservations all fall back to full
        # planning.  Ledger/outcome collection does not: a skipped shard's
        # cached classification is replayed in walk order below, so the
        # instruments see exactly what a full re-plan would have shown them.
        skip_ok = (
            multi
            and self.shard_skip_enabled
            and not lockdown
            and backfill_enabled
            and not config.admin_reservations
            and None not in sids
        )
        fingerprints = self._shard_fingerprints(routed) if multi else None

        workings: dict[int, AvailabilityProfile] = {}

        def working_for(sid: int) -> AvailabilityProfile:
            profile = workings.get(sid)
            if profile is None:
                profile = self._build_profile(
                    shards[sid] if multi else static_partitions(config)
                )
                workings[sid] = profile
            return profile

        if not multi:
            # built even on an empty queue: every pass then leaves a base
            # for the next advance, and the profile_builds / cache_hits /
            # advances counters are pinned on exactly this (test_shards.py
            # ``_PINNED_SINGLE_SHARD``)
            working_for(0)

        blocked_ids: list[str] = []
        reserved_ahead: list[tuple[str, float]] = []
        depth = config.reservation_depth
        res_counts = {shard.index: 0 for shard in shards}
        shard_blocked: dict[int, set[str]] = {shard.index: set() for shard in shards}
        shard_reserved: dict[int, dict[str, float]] = {
            shard.index: {} for shard in shards
        }
        started = 0
        backfilled = 0
        passed_blocked = False
        stopped_at: int | None = None
        self._next_reservation_start = None

        # A plan outlives its pass (docs/PERFORMANCE.md, PR 16).  An entry
        # whose resource signature still holds and whose reservations all
        # lie ahead is replayed, in walk order, for the jobs it covers: the
        # whole routed queue (the shard is skipped) or, R1, a strict prefix
        # of it — then only the new tail is planned, on the entry's retained
        # post-walk profile, because nothing behind a job influences its plan.
        skipped: set[int] = set()
        #: sid -> jobs at the head of its routed queue still to replay
        replay_left: dict[int, int] = {}
        #: shards where a start of this pass overlaps a reservation window
        overlapped: set[int] = set()
        if skip_ok:
            for sid, cached in self._shard_pass_cache.items():
                res_start = cached["min_res_start"]
                if res_start is not None and now >= res_start:
                    continue  # a cached reservation is due: replan the shard
                resources, queue = fingerprints[sid]
                was_resources, was_queue = cached["fingerprint"]
                if was_resources != resources:
                    continue
                if was_queue == queue:
                    skipped.add(sid)
                elif (
                    cached["profile"] is not None
                    and queue[: len(was_queue)] == was_queue
                ):
                    workings[sid] = cached["profile"]
                    workings[sid].advance_to(now)
                    res_counts[sid] = len(cached["reserved"])
                    shard_reserved[sid] = dict(cached["reserved"])
                    shard_blocked[sid] = set(cached["blocked"])
                else:
                    continue
                replay_left[sid] = len(was_queue)

        for idx, job in enumerate(ordered):
            sid = sids[idx]
            if replay_left.get(sid):
                replay_left[sid] -= 1
                if self._replay_cached(
                    job.job_id, sid, blocked_ids, reserved_ahead, outcome
                ):
                    passed_blocked = True
                continue
            request = job.request
            walltime = job.walltime
            spanning = sid is None
            if spanning:
                # cross-shard merge: gather every shard's current working
                # profile (claims of earlier jobs this pass included) into
                # one full view, plan on it, scatter claims back below
                stats["shard_merges"] += 1
                if prof is not None:
                    prof.begin("shard_merge")
                working = AvailabilityProfile.merge(
                    [working_for(shard.index) for shard in shards]
                )
                if prof is not None:
                    prof.end()
            else:
                working = working_for(sid)
            if prof is not None:
                suffix = ".merge" if spanning else f".s{sid}" if multi else ""
                prof.begin("backfill_scan" + suffix)
            # instantaneous-free prune: on a packed cluster most candidates
            # fail against the free vector at `now` alone, skipping the
            # window scan (a pure short-circuit — fits_at would return None)
            if working.quick_reject(now, request):
                stats["backfill_quick_rejects"] += 1
                alloc = None
            else:
                alloc = working.fits_at(now, walltime, request)
            molded = False
            # min_cores unset means the floor is the request itself
            if (
                alloc is None
                and job.min_cores
                and job.moldable_floor < request.total_cores
            ):
                alloc = self._mold_to_fit(working, job, now)
                if alloc is not None:
                    molded = True
                    stats["jobs_molded"] += 1
                    self.trace.record(
                        now,
                        EventKind.MOLDABLE_START,
                        job_id=job.job_id,
                        user=job.user,
                        requested=request.total_cores,
                        granted=alloc.total_cores,
                        floor=job.moldable_floor,
                    )
            if prof is not None:
                prof.end()
            if alloc is not None:
                if spanning:
                    for part_sid, part in shard_map.split_allocation(alloc).items():
                        workings[part_sid].add_claim(now, now + walltime, part)
                else:
                    working.add_claim(now, now + walltime, alloc)
                if ledger is not None:
                    ledger.note_start(
                        job,
                        now,
                        backfilled=passed_blocked,
                        molded=molded,
                        cores=alloc.total_cores,
                        fingerprint=fingerprint,
                        jumped=blocked_ids if passed_blocked else None,
                        hole_until=self._next_reservation_start,
                        shard=sid if multi else None,
                    )
                self.server.start_job(job, alloc, backfilled=passed_blocked)
                self._route_assign.pop(job.job_id, None)
                if skip_ok:
                    # R2/R3: this start keeps the shard's plan unless its
                    # claim reaches into a reservation window placed so far
                    routed[sid].remove(job.job_id)
                    holes = shard_reserved[sid]
                    if holes and now + walltime > min(holes.values()):
                        overlapped.add(sid)
                if passed_blocked:
                    stats["jobs_backfilled"] += 1
                    backfilled += 1
                else:
                    stats["jobs_started"] += 1
                    started += 1
                continue
            # blocked: reserve if within depth, then maybe stop the pass.
            # Reservation depth is per shard; a spanning job counts against
            # every shard (equivalent to the single global counter at one
            # shard).
            under_depth = (
                all(count < depth for count in res_counts.values())
                if spanning
                else res_counts[sid] < depth
            )
            if under_depth:
                if prof is not None:
                    prof.begin("reservation_plan" + suffix)
                try:
                    try:
                        if prof is not None:
                            prof.begin("earliest_fit" + suffix)
                        try:
                            # probe_start=False: this job just failed to
                            # start at `now` against this very profile, so
                            # the window query at the bound is already known
                            # to fail
                            start, res_alloc = working.earliest_fit(
                                request, walltime, after=now, probe_start=False
                            )
                        finally:
                            if prof is not None:
                                prof.end()
                    except NoFitError:
                        if outcome is not None:
                            outcome[job.job_id] = (
                                "queued_behind",
                                "request can never fit",
                            )
                        continue  # oversized for this view; skip
                    if spanning:
                        for part_sid, part in shard_map.split_allocation(
                            res_alloc
                        ).items():
                            workings[part_sid].add_claim(
                                start, start + walltime, part
                            )
                        for shard in shards:
                            res_counts[shard.index] += 1
                    else:
                        working.add_claim(start, start + walltime, res_alloc)
                        res_counts[sid] += 1
                        shard_reserved[sid][job.job_id] = start
                    if (
                        self._next_reservation_start is None
                        or start < self._next_reservation_start
                    ):
                        self._next_reservation_start = start
                    stats["reservations_created"] += 1
                    self.trace.record(
                        now,
                        EventKind.RESERVATION_CREATE,
                        job_id=job.job_id,
                        start=start,
                        cores=res_alloc.total_cores,
                    )
                    if ledger is not None:
                        ledger.note_reservation(
                            job, now, start, res_alloc.total_cores,
                            lambda: self._waiting_on(start, reserved_ahead),
                            fingerprint,
                            shard=sid if multi else None,
                        )
                        reserved_ahead.append((job.job_id, start))
                        if outcome is not None:
                            outcome[job.job_id] = (
                                "reservation_held",
                                f"reserved at t={start:.1f}",
                            )
                finally:
                    if prof is not None:
                        prof.end()
            elif outcome is not None:
                behind = f"behind {blocked_ids[0]}" if blocked_ids else None
                outcome[job.job_id] = ("queued_behind", behind)
            blocked_ids.append(job.job_id)
            if sid is not None:
                shard_blocked[sid].add(job.job_id)
            passed_blocked = True
            if job.top_priority or not backfill_enabled or lockdown:
                # ESP Z-job lockdown, or strict priority order without
                # backfill: nothing below the blocked job may start
                stopped_at = idx
                break
        if outcome is not None and stopped_at is not None:
            if lockdown:
                reason = "Z-job lockdown"
            elif not backfill_enabled:
                reason = "backfill disabled"
            else:
                reason = f"blocked top-priority job {ordered[stopped_at].job_id}"
            for job in ordered[stopped_at + 1 :]:
                outcome[job.job_id] = ("backfill_blocked", reason)
        if multi:
            if skip_ok and stopped_at is None:
                if started or backfilled:
                    # R2/R3: a start that precedes every reservation of its
                    # shard, or whose claim ends by the earliest of them,
                    # leaves exactly the plan the echo pass would rebuild —
                    # file it under the fingerprint that pass will compute
                    fingerprints = self._shard_fingerprints(routed)
                for shard in shards:
                    sid = shard.index
                    if sid in skipped:
                        stats["shard_passes_skipped"] += 1
                    elif sid in overlapped:
                        self._shard_pass_cache.pop(sid, None)
                    else:
                        reserved = shard_reserved[sid]
                        self._shard_pass_cache[sid] = {
                            "fingerprint": fingerprints[sid],
                            "blocked": frozenset(shard_blocked[sid]),
                            "reserved": reserved,
                            "min_res_start": min(reserved.values(), default=None),
                            "profile": workings.get(sid),
                        }
            else:
                self._shard_pass_cache.clear()
        if prof is not None:
            prof.end()
        return started, backfilled

    def explain(self, job: Job) -> dict:
        """Why is this job where it is?  (Maui's ``checkjob`` equivalent.)

        Returns a dict with the job's state, queue position, current
        priority, planned earliest start from a fresh plan, and — for
        queued jobs — what is holding it back, naming the *specific* gate:
        the hold kind, the dependency target, the throttle limit hit, or
        resources.  With the decision ledger enabled the dict also carries
        the job's causal chain (every recorded decision that touched it)
        and its wait-time attribution so far.  Read-only: no reservation
        or start side effects.
        """
        now = self.engine.now
        info: dict = {
            "job_id": job.job_id,
            "state": job.state.value,
            "priority": None,
            "queue_position": None,
            "planned_start": None,
            "blocked_by": None,
        }
        if job.submit_time is not None:
            info["priority"] = self.prioritizer.priority(job, now)
        if self._ledger is not None:
            info["causal_chain"] = self._ledger.causal_chain(job.job_id)
            info["attribution"] = self._ledger.attribution(job.job_id, upto=now)
        if job.is_active:
            info["planned_start"] = job.start_time
            return info
        if job.is_finished or job.submit_time is None:
            return info
        exclusions: dict[str, tuple[str, str | None]] = {}
        eligible = self._eligible_static(now, exclusions=exclusions)
        if job not in eligible:
            _cause, detail = exclusions.get(job.job_id, (None, None))
            info["blocked_by"] = detail
            return info
        info["queue_position"] = eligible.index(job)
        profile = self._build_profile(static_partitions(self.config))
        plan = plan_static(
            eligible, profile, now, depth=max(self.config.plan_depth, len(eligible))
        )
        starts = plan.starts_by_job()
        if job.job_id in starts:
            info["planned_start"] = starts[job.job_id]
            if starts[job.job_id] > now:
                info["blocked_by"] = "resources"
        else:
            info["blocked_by"] = "request can never fit"
        return info

    @staticmethod
    def _mold_to_fit(working, job, now):
        """Largest core count in [moldable_floor, request) fitting right now.

        Feasibility is monotone in the size, so binary search over the
        flexible request.  Returns None when even the floor does not fit.
        """
        lo, hi = job.moldable_floor, job.request.total_cores - 1
        if working.fits_at(now, job.walltime, ResourceRequest(cores=lo)) is None:
            return None
        best = lo
        while lo <= hi:
            mid = (lo + hi + 1) // 2
            if working.fits_at(now, job.walltime, ResourceRequest(cores=mid)) is not None:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return working.fits_at(now, job.walltime, ResourceRequest(cores=best))

    def __repr__(self) -> str:
        return (
            f"<MauiScheduler iterations={self.stats['iterations']} "
            f"granted={self.stats['dyn_granted']} rejected={self.stats['dyn_rejected']}>"
        )
