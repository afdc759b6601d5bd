"""The extended Maui scheduler (paper Algorithms 1 and 2).

One :class:`MauiScheduler` instance attaches to a server and runs a
scheduling iteration whenever job or resource state changes (Maui wake-up
condition (i)), optionally also on a periodic timer.  Each iteration:

1. updates statistics (fairshare and DFS interval roll-over; usage itself
   accrues whenever a job's cores change);
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

from repro.cluster.allocation import Allocation
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
from repro.maui.profiles import ViewProfiles
from repro.maui.reservations import StaticPlan, plan_static
from repro.maui.staticpass import StaticPass
from repro.obs.clock import perf_ns as _perf_ns
from repro.obs.instruments import mirror_scheduler
from repro.obs.perf import timed
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
        self.fairshare = FairshareTracker(
            self.config.weights.fairshare_interval,
            self.config.weights.fairshare_decay,
            start_time=engine.now,
            clock=engine,
        )
        self.prioritizer = Prioritizer(self.config.weights, self.fairshare)
        self.dfs = DFSLedger(self.config.dfs, start_time=engine.now)
        self._wake_pending = False
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
            "profile_advances": 0,
            "profile_advance_fallbacks": 0,
            "backfill_quick_rejects": 0,
            "shard_merges": 0,
            "shard_passes_skipped": 0,
        }
        #: optional :class:`repro.obs.ledger.DecisionLedger`; None keeps
        #: every ledger hook a single attribute-is-None check (off path)
        self._ledger = None
        #: optional :class:`repro.obs.perf.PhaseProfiler`; same discipline —
        #: every phase hook on the disabled path is one is-None check
        self._prof = None
        #: optional :class:`repro.obs.fairness.FairnessObservatory`; sampled
        #: by the statistics update (its feed is the fairshare tracker's
        #: folds) — same single-is-None hook discipline
        self._fair = None
        if self.telemetry is not None:
            # what the scheduler counts is read out of ``stats`` and
            # ``dfs`` when metrics are
            mirror_scheduler(self.telemetry, self.stats, self.dfs)
            self._ledger = getattr(self.telemetry, "ledger", None)
            self._prof = getattr(self.telemetry, "profiler", None)
            self._fair = getattr(self.telemetry, "fairness", None)
        #: availability profiles per planning view, incrementally
        #: maintained (:mod:`repro.maui.profiles`)
        self.profiles = ViewProfiles(
            engine, cluster, server, self.config, self.stats, self._prof
        )
        #: Algorithm 2 lines 25-26 (:mod:`repro.maui.staticpass`): static
        #: starts, reservations and backfill, planned per shard
        self.static_pass = StaticPass(
            cluster, server, self.config, self.profiles, self.stats,
            ledger=self._ledger, profiler=self._prof,
        )
        #: per-shard pass skip: a shard's plan outlives the pass that made
        #: it (:class:`repro.maui.shards.ShardBook`), at any shard count.
        #: Test reference, not a tuning option: the skip-off run is what
        #: tests/test_shards.py proves all of this sound against, and
        #: nothing in config or the CLI reaches it.
        self.shard_skip_enabled = True
        #: event-driven activation: wake-ups with no state change since the
        #: last full pass or onto an empty queue are skipped (statistics
        #: still accrue), and a pass queues its own echo only when it cannot
        #: prove it a replay.  Test reference, not a tuning option:
        #: always-iterate is what tests/test_scheduler.py and
        #: tests/test_ledger.py prove the skips sound against, and nothing
        #: in config or the CLI reaches it.
        self.iteration_skip_enabled = True
        #: (server.state_version, cluster.version) the last full iteration
        #: answers for — the quiescence fingerprint: the pair at its start,
        #: or at its end when the pass proved its echo a replay (R4).
        self._last_pass_state: tuple[int, int] | None = None
        #: R4, a pass does not wake itself: while one runs, the state
        #: changes it makes are noted here instead of queued as a wake
        self._in_pass = False
        self._echo_noted = False
        #: set by time-anchored wakes (reservation boundaries, maintenance
        #: window edges) whose whole point is that *time*, not state, changed
        self._force_iteration = False
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
        server.on_cores = self.fairshare.hold
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
        elif self._in_pass:
            self._echo_noted = True
            return
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
        # profile bases and kept shard plans were laid out on the old node
        # set too (capability routing notices the topology version itself)
        self.profiles.forget_bases()
        self.static_pass.shards.plans.clear()
        self.request_iteration(force=True)

    def _run_iteration(self) -> None:
        self._wake_pending = False
        force = self._force_iteration
        self._force_iteration = False
        if not force and self._quiescent():
            # Nothing a full pass could act on has changed: same job and
            # cluster state, no pending dynamic requests.  Statistics still
            # roll (so fairshare decay and DFS interval rolls are
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
                log.debug(
                    "iteration skipped t=%.1f (state unchanged)", self.engine.now
                )
                return
        self.iteration()

    def _quiescent(self) -> bool:
        """Nothing a full pass could act on?

        Conservative on purpose: any pending dynamic request (including
        negotiated requests awaiting fresh availability estimates) forces a
        full iteration.  Otherwise a pass is a no-op when neither monotone
        version counter moved since the last one, or (R5) when nothing is
        queued and no boundary wake is left for a pass to cancel.
        Time-only effects — a planned reservation becoming startable, a
        maintenance window opening — arrive as *forced* wakes and never
        reach this check.
        """
        server = self.server
        if not self.iteration_skip_enabled or server.dyn_queue:
            return False
        return self._last_pass_state == (
            server.state_version, self.cluster.version
        ) or (not server.queue and self._boundary_wake is None)

    def _timer_tick(self) -> None:
        self.request_iteration()
        self.engine.after(self.config.timer_interval, self._timer_tick)

    # ------------------------------------------------------------------
    # the iteration
    # ------------------------------------------------------------------
    def iteration(self) -> None:
        """One full scheduling cycle (Algorithm 2; Algorithm 1 if static)."""
        now = self.engine.now
        timed(self._prof, "sched_iteration", self._iterate, now, sim_time=now)

    def _iterate(self, now: float) -> None:
        """The cycle as a walk over its phases: statistics, dynamic
        requests, prioritisation, the static pass, wrap-up."""
        self.stats["iterations"] += 1
        # fingerprint taken *before* the pass: an iteration that starts,
        # grants or preempts anything bumps the version counters past this
        # snapshot (a fresh start moves where blocked jobs' reservations
        # land, which can unlock further backfill — the fixpoint semantics
        # of the original always-iterate loop), so the echo wake-up runs a
        # full pass unless this pass proves it a replay
        self._last_pass_state = (self.server.state_version, self.cluster.version)
        self._in_pass = self.iteration_skip_enabled
        self._echo_noted = False
        replay = False
        try:
            replay = self._walk_phases(now)
        finally:
            # reset even when a phase raises: a scheduler left "in pass"
            # would note every later state change and never wake again
            self._in_pass = False
            if replay:
                self._last_pass_state = (
                    self.server.state_version, self.cluster.version
                )
            elif self._echo_noted:
                self.request_iteration()

    def _walk_phases(self, now: float) -> bool:
        """Run the phases; returns whether a second pass right now is
        proven to replay this one (R4)."""
        prof = self._prof
        self._update_statistics(now)

        if self.server.dyn_queue:
            if self.config.dynamic_enabled:
                self._process_dynamic_requests(now)
            else:
                for dreq in list(self.server.dyn_queue):
                    self._reject(dreq, "dynamic allocation disabled", kind="resources")

        # ledger only: every still-queued job is classified exactly once per
        # pass, into one dict — excluded (hold/dependency/throttle) or
        # examined by the static pass (reserved, plain queued, or blocked
        # from backfilling)
        classified: dict[str, tuple[str, str | None]] | None = (
            {} if self._ledger is not None else None
        )
        ordered = timed(
            prof, "prioritize", self._eligible_static, now, classified, cancel=True
        )
        lockdown = self.server.queue.has_top_priority_job
        started, backfilled, self._next_reservation_start, replayable = timed(
            prof, "static_pass", self.static_pass.run,
            ordered, now, lockdown, classified, self.shard_skip_enabled,
        )
        timed(
            prof, "wrap_up", self._wrap_up,
            now, classified, started, backfilled, lockdown,
        )
        # R4: the echo pass would see no dynamic request, rank the same
        # jobs minus the started ones (every queued job was walked: no
        # hold, dependency or throttle exclusion a start could flip) and
        # replay every shard's kept plan
        return (
            replayable
            and not self.server.dyn_queue
            and len(ordered) - started - backfilled == len(self.server.queue)
            and self.config.max_running_jobs_per_user is None
            and self.config.max_eligible_jobs_per_user is None
        )

    def _wrap_up(
        self, now: float, classified, started: int, backfilled: int, lockdown: bool
    ) -> None:
        if self._ledger is not None:
            self._ledger.observe_queue(now, classified)
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

    def _eligible_static(
        self,
        now: float,
        exclusions: dict[str, tuple[str, str | None]] | None = None,
        cancel: bool = False,
    ) -> list[Job]:
        """Queued jobs eligible for priority scheduling (Algorithm step 6).

        Three gates, all part of Maui's "minimum scheduling criterion":

        * holds — a held job stays queued but frozen until released;
        * dependencies — unmet dependencies keep the job queued but
          invisible to the planner; with ``cancel`` (the iteration's own
          call, never a query) a failed ``afterok`` cancels it;
        * throttling — at most ``max_eligible_jobs_per_user`` queued jobs
          per user are considered, and a user at the
          ``max_running_jobs_per_user`` cap contributes no more eligible
          jobs than the cap leaves headroom for.

        The queue is kept in rank order and counts its jobs that carry a
        hold or a dependency: with none, the gate walk is skipped, and
        under FIFO weights :meth:`Prioritizer.order` scores no job.

        ``exclusions`` (diagnostics/ledger only) collects
        ``job_id -> (cause, detail)`` for every job a gate filtered out,
        naming the specific hold kind, dependency target or throttle limit.
        """
        queue = self.server.queue
        gated = queue.has_gated_job
        eligible = [] if gated else queue.snapshot()
        for job in queue.snapshot() if gated else ():
            if job.hold is not None:
                if exclusions is not None:
                    exclusions[job.job_id] = (f"{job.hold}_held", f"{job.hold} hold")
                continue
            if cancel and self.server.dependency_failed(job):
                self.server.cancel_queued(job, reason="dependency failed")
                continue
            if self.server.dependency_satisfied(job):
                eligible.append(job)
            elif exclusions is not None:
                exclusions[job.job_id] = (
                    "dependency_held",
                    f"dependency on {job.depends_on}",
                )
        ordered = self.prioritizer.order(eligible, now, ranked=True)
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
        """Maui iteration step 4: roll accounting windows, sample fairness."""
        timed(self._prof, "fairshare_update", self._accrue_usage, now, sim_time=now)

    def _accrue_usage(self, now: float) -> None:
        """Roll the fairshare and DFS windows past ``now``.

        Usage itself was folded by the tracker at every change of a job's
        cores (:meth:`FairshareTracker.hold`); a read here sees it up to
        ``now``.  The drain lets fold-and-discard drop the jobs that
        finished since the previous pass.
        """
        self.server.drain_finished_for_stats()
        self.fairshare.roll(now)
        fair = self._fair
        if fair is not None:
            fair.sample(now, self.fairshare)
        if self.dfs.roll(now):
            self.trace.record(
                now, EventKind.DFS_INTERVAL_ROLL, interval_start=self.dfs.interval_start
            )

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
        """Inputs for one delay measurement: the availability profile, the
        eligible static ordering, the static-partition node set and the
        *baseline* priority plan the claim's plan is compared against."""
        partitions = static_partitions(self.config)
        profile = self.profiles.build(partitions)
        ordered = self._eligible_static(now)
        profile_nodes = set(self.cluster.free_by_node(partitions=partitions))
        baseline = (
            plan_static(ordered, profile.copy(), now, self.config.plan_depth)
            if ordered
            else None
        )
        return profile, ordered, profile_nodes, baseline

    def _process_dynamic_requests(self, now: float) -> None:
        """Serve every pending request, each as one ``dyn_request`` phase
        (the profiler's per-request Fig. 12 view) and timed into
        ``stats["dyn_handle_seconds"]`` either way."""
        for dreq in self._ordered_dynamic_requests():
            wall_start_ns = _perf_ns()
            try:
                timed(
                    self._prof, "dyn_request", self._handle_dynamic_request, dreq, now
                )
            finally:
                self.stats["dyn_handle_seconds"] += (_perf_ns() - wall_start_ns) / 1e9

    def _handle_dynamic_request(self, dreq: DynRequest, now: float) -> None:
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

        # Measure the delays holding ``alloc`` until the job's walltime end
        # would inflict on the queue as planned on the static partitions,
        # and ask the DFS policies.
        profile, ordered, profile_nodes, baseline = timed(
            self._prof, "delay_context", self._delay_context, now
        )
        claim_inside = Allocation(
            {n: c for n, c in alloc.items() if n in profile_nodes}
        )
        if claim_inside.is_empty:
            victims = []
        else:
            victims = timed(
                self._prof, "delay_measure", measure_delays,
                ordered, profile, claim_inside, claim_end, now,
                self.config.plan_depth, baseline=baseline,
            )
        decision = self.dfs.evaluate(victims, job.user, now)
        if decision:
            self._grant(
                dreq, alloc, victims=victims, reason=decision.reason,
                charged=self.dfs.commit(victims, job.user),
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

    def _grant(
        self,
        dreq: DynRequest,
        alloc: Allocation,
        *,
        victims,
        charged: float,
        reason: str = "",
        preempted: list[str] | None = None,
    ) -> None:
        if self._ledger is not None:
            self._ledger.note_dyn_grant(
                dreq, self.engine.now,
                cores=alloc.total_cores,
                victims=victims, charged=charged,
                policy=self.config.dfs.policy.value, reason=reason,
                fingerprint=self.profiles.state(), preempted=preempted,
            )
        self.stats["dyn_granted"] += 1
        self.stats["total_delay_charged"] += charged
        self.server.grant_dynamic(dreq, alloc)

    def _reject(self, dreq, reason: str, *, kind: str, victims=()) -> None:
        if self._ledger is not None:
            self._ledger.note_dyn_deny(
                dreq, self.engine.now, reason=reason, deny_kind=kind,
                victims=victims, policy=self.config.dfs.policy.value,
                fingerprint=self.profiles.state(),
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
        profile = self.profiles.build(None)
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
    # diagnostics
    # ------------------------------------------------------------------
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
        profile = self.profiles.build(static_partitions(self.config))
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

    def __repr__(self) -> str:
        return (
            f"<MauiScheduler iterations={self.stats['iterations']} "
            f"granted={self.stats['dyn_granted']} rejected={self.stats['dyn_rejected']}>"
        )
