"""Static starts, reservations and backfill (Algorithm 2 lines 25-26).

One global priority walk over per-shard plans (:mod:`repro.maui.shards`):
:class:`StaticPass` routes every queued job to a shard and walks the queue
through named phases.  A job covered by a kept plan that still holds is
*replayed*; any other is *scanned* for a start right now, *started* if it
fits, given a *reservation* if it is among its shard's first
``ReservationDepth`` blocked jobs, and passed over otherwise; plans that
survive the pass are *filed* for the next one.  The walk is the same for
any number of shards; only the *names* it gives (:meth:`StaticPass._name`)
read the shard count.
"""

from __future__ import annotations

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.profile import AvailabilityProfile, NoFitError
from repro.jobs.job import Job
from repro.maui.config import MauiConfig
from repro.maui.profiles import ViewProfiles
from repro.maui.shards import ShardBook, ShardPlan
from repro.obs.perf import timed
from repro.rms.server import Server
from repro.sim.events import EventKind

__all__ = ["StaticPass"]


def _mold_to_fit(working: AvailabilityProfile, job: Job, now: float):
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


class StaticPass:
    """Start jobs in priority order; reserve for the top blocked jobs."""

    def __init__(
        self, cluster: Cluster, server: Server, config: MauiConfig,
        profiles: ViewProfiles, stats: dict, *, ledger=None, profiler=None,
    ) -> None:
        self.cluster = cluster
        self.server = server
        self.config = config
        self.profiles = profiles
        self.stats = stats
        self.trace = server.trace
        self._ledger = ledger
        self._prof = profiler
        #: routing and kept plans, over the shards the profiles keep
        self.shards = ShardBook(cluster, server, profiles.shard_map)
        # state of the pass in progress, reset by :meth:`run`
        self._now = 0.0
        self._snapshot: tuple = ()
        self._skip_ok = False
        self._plans: list[ShardPlan] = []
        self._outcome: dict[str, tuple[str, str | None]] | None = None
        self._blocked_ids: list[str] = []
        self._reserved_ahead: list[tuple[str, float]] = []
        self._next_start: float | None = None

    def run(
        self, ordered: list[Job], now: float, lockdown: bool,
        outcome: dict[str, tuple[str, str | None]] | None, skip: bool,
    ) -> tuple[int, int, float | None, bool]:
        """One static pass over ``ordered``.  Returns ``(priority starts,
        backfill starts, earliest reservation start, replayable)`` —
        ``replayable``: every shard's plan was kept under the fingerprint
        this pass leaves behind, so a pass over what is still queued, at
        this timestamp, would replay every job (R4).

        ``ReservationDepth`` bounds how many *blocked* jobs receive future
        reservations — it never prevents a fitting job from starting.  Jobs
        that start after any higher-priority job was passed over run out of
        order and are therefore marked (and counted) as backfill; with
        backfill disabled the pass stops at the first blocked job instead
        (strict priority order).

        ``outcome`` (ledger only) collects ``job_id -> (cause, detail)`` for
        every examined-but-not-started job plus everything left unexamined
        when the pass stops early.  ``skip`` is the scheduler's
        ``shard_skip_enabled`` test reference.
        """
        config = self.config
        stats = self.stats
        backfill_enabled = config.backfill_enabled
        depth = config.reservation_depth
        self._now = now
        self._outcome = outcome
        self._next_start = None
        sids, routed = self.shards.route(ordered)
        if not ordered:
            # nothing to plan or block; a kept plan stays as valid as its
            # fingerprint says (R5)
            return 0, 0, None, True
        # Replaying a kept plan is sound because profiles are release-only
        # between state changes (free cores non-decreasing in time, so
        # fits/earliest-fit outcomes are time-stable until the earliest
        # planned reservation start); spanning jobs, lockdown, disabled
        # backfill and admin reservations all fall back to full planning.
        # Ledger/outcome collection does not: a kept classification is
        # replayed in walk order, so the instruments see exactly what a
        # full re-plan would have shown.
        self._skip_ok = (
            skip
            and not lockdown
            and backfill_enabled
            and not config.admin_reservations
            and None not in sids
        )
        plans = self.shards.match(routed, now, self._skip_ok)
        self._plans = plans
        self._snapshot = self.profiles.state()
        blocked_ids = self._blocked_ids = []
        self._reserved_ahead = []
        unprofiled = self._prof is None
        started_before = stats["jobs_started"]
        backfilled_before = stats["jobs_backfilled"]
        passed_blocked = False
        stopped_at: int | None = None

        for idx, job in enumerate(ordered):
            sid = sids[idx]
            if sid is None:
                # no single shard can host the job: it plans on the merge
                # of every shard's profile and counts against every shard
                plan = None
                working = timed(self._prof, "shard_merge", self._merged)
            else:
                plan = plans[sid]
                if plan.replay_left:
                    plan.replay_left -= 1
                    if self._replay(job, plan, passed_blocked):
                        passed_blocked = True
                    continue
                working = plan.profile
                if working is None:
                    # R6: a plan that has placed nothing yet plans on
                    # release-only availability, so the fit right now is
                    # the fit into the shard's free cores; the profile is
                    # built on the shard's first blocked job and then holds
                    # this pass's starts as running jobs
                    if self._skip_ok and self._free_start(job, plan, passed_blocked):
                        continue
                    working = self._profile_of(plan)
            # The commonest way out of this body — screened out by
            # quick_reject, then beyond the reservation depth — stays
            # inline: a pure short-circuit of the scan (fits_at would return
            # None) that costs no call frame.  A job that molds, or a pass
            # under the profiler, is screened inside the scan instead.
            screened = unprofiled and not job.min_cores
            if screened and working.quick_reject(now, job.request, job.walltime):
                stats["backfill_quick_rejects"] += 1
            else:
                alloc, molded = self._backfill_scan(job, plan, working, screened)
                if alloc is not None:
                    self._start(job, plan, working, alloc, molded, passed_blocked)
                    continue
                if job.min_cores and plan is not None:
                    plan.moldable.add(job.job_id)
            # blocked: reserve if within depth, then maybe stop the pass.
            # Reservation depth is per shard; a spanning job counts against
            # every shard.
            if (
                plan.res_count < depth
                if plan is not None
                else all(p.res_count < depth for p in plans)
            ):
                if not self._plan_reservation(job, plan, working):
                    continue  # can never fit this view: contributes nothing
            elif outcome is not None:
                behind = f"behind {blocked_ids[0]}" if blocked_ids else None
                outcome[job.job_id] = ("queued_behind", behind)
            blocked_ids.append(job.job_id)
            if plan is not None:
                plan.blocked.add(job.job_id)
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
        skipped, replayable = self.shards.file(
            plans, self._skip_ok and stopped_at is None
        )
        stats["shard_passes_skipped"] += skipped
        return (
            stats["jobs_started"] - started_before,
            stats["jobs_backfilled"] - backfilled_before,
            self._next_start,
            replayable,
        )

    # ------------------------------------------------------------------
    # phases of the walk
    # ------------------------------------------------------------------
    def _name(self, plan: ShardPlan | None) -> tuple[str, int | None]:
        """How a plan's work is *named*: its profiler-phase suffix and its
        ledger ``shard`` label; ``plan`` None is the cross-shard merge.  The
        one place the shard count is read: with a single shard a label that
        is always 0 says nothing, so phases stay unsuffixed and ledger
        records carry no ``shard`` field."""
        if len(self.shards.shard_map) == 1:
            return "", None
        if plan is None:
            return ".merge", None
        return f".s{plan.sid}", plan.sid

    def _profile_of(self, plan: ShardPlan) -> AvailabilityProfile:
        """The plan's working profile, built on first use."""
        if plan.profile is None:
            plan.profile = self.profiles.build(
                self.shards.shard_map.shards[plan.sid]
            )
        return plan.profile

    def _merged(self) -> AvailabilityProfile:
        """Cross-shard merge: every shard's current working profile (claims
        of earlier jobs this pass included) as one full view; claims made
        on it are scattered back by :meth:`_claim`."""
        self.stats["shard_merges"] += 1
        return AvailabilityProfile.merge(
            [self._profile_of(plan) for plan in self._plans]
        )

    def _claim(
        self, plan: ShardPlan | None, working: AvailabilityProfile | None,
        start: float, end: float, alloc: Allocation,
    ) -> None:
        if plan is None:
            for sid, part in self.shards.shard_map.split_allocation(alloc).items():
                self._plans[sid].profile.add_claim(start, end, part)
        elif working is not None:  # None: a start into free space (R6) or
            # onto its own reservation's claim (R7b)
            working.add_claim(start, end, alloc)

    def _replay(self, job: Job, plan: ShardPlan, backfilled: bool) -> bool:
        """Replay one job's outcome from ``plan``, exactly as the plan
        decided and *in walk order*: a start of a planned shard between two
        replayed jobs must see the same ``hole_until``, ``jumped`` and
        ``waiting_on`` a full re-plan would give it.  No RESERVATION_CREATE
        record and no ``note_reservation`` — the start is unchanged, which
        the ledger's own dedup would drop.  Returns whether the job blocks
        (False: it started, or it can never fit and contributes nothing to
        the walk)."""
        job_id = job.job_id
        outcome = self._outcome
        reservation = plan.reserved.get(job_id)
        if reservation is not None:
            start, alloc = reservation
            if start == self._now:
                # R7b: due on a foreseen release, so the reservation starts
                # on its allocation; its claim [now, now + walltime) already
                # is the running job's, and the tail may reserve one more
                del plan.reserved[job_id]
                plan.res_count -= 1
                plan.blocked.discard(job_id)
                self._start(job, plan, None, alloc, False, backfilled)
                return False
            # a no-op unless R7 re-derives it: in walk order, so a start
            # is tested (R3) against the reservations ahead of it only
            if plan.min_res_start is None or start < plan.min_res_start:
                plan.min_res_start = start
            self._hold(job_id, start)
        elif job_id not in plan.blocked:
            if outcome is not None:
                outcome[job_id] = ("queued_behind", "request can never fit")
            return False
        elif outcome is not None:
            # still blocked beyond the shard's reservation depth
            blocked_ids = self._blocked_ids
            behind = f"behind {blocked_ids[0]}" if blocked_ids else None
            outcome[job_id] = ("queued_behind", behind)
        self._blocked_ids.append(job_id)
        return True

    def _hold(self, job_id: str, start: float) -> None:
        """A reservation, placed or replayed, anchors the boundary wake and
        (ledger only) is what later reservations of the pass may wait on."""
        if self._next_start is None or start < self._next_start:
            self._next_start = start
        if self._ledger is not None:
            self._reserved_ahead.append((job_id, start))
            if self._outcome is not None:
                self._outcome[job_id] = (
                    "reservation_held",
                    f"reserved at t={start:.1f}",
                )

    def _free_start(self, job: Job, plan: ShardPlan, backfilled: bool) -> bool:
        """R6: start ``job`` if its request fits the free cores of the
        plan's shard — what ``fits_at(now, walltime, request)`` answers on
        the profile the plan has not needed yet."""
        prof = self._prof
        if prof is not None:
            prof.begin("backfill_scan" + self._name(plan)[0])
        # shard nodes ascend and a node that is not UP reads 0 free, which
        # no pick takes: the same answer as ``fit_free`` on the free map
        nodes = self.shards.shard_map.shards[plan.sid].nodes
        free = self.cluster.node_free
        alloc = AvailabilityProfile._fit_from_min(
            [free[n] for n in nodes], job.request, nodes
        )
        if prof is not None:
            prof.end()
        if alloc is not None:
            self._start(job, plan, None, alloc, False, backfilled)
        return alloc is not None

    def _backfill_scan(
        self, job: Job, plan: ShardPlan | None, working: AvailabilityProfile,
        screened: bool,
    ) -> tuple[Allocation | None, bool]:
        """Can ``job`` start right now?  Returns ``(allocation, molded)``;
        ``screened``: the walk has already run ``quick_reject`` on it."""
        prof = self._prof
        if prof is not None:
            prof.begin("backfill_scan" + self._name(plan)[0])
        now = self._now
        request = job.request
        # on a packed cluster most candidates fail the screen, skipping
        # the window scan (a pure short-circuit — fits_at would return None)
        if not screened and working.quick_reject(now, request, job.walltime):
            self.stats["backfill_quick_rejects"] += 1
            alloc = None
        else:
            alloc = working.fits_at(now, job.walltime, request)
        molded = False
        # min_cores unset means the floor is the request itself
        if (
            alloc is None
            and job.min_cores
            and job.moldable_floor < request.total_cores
        ):
            alloc = _mold_to_fit(working, job, now)
            if alloc is not None:
                molded = True
                self.stats["jobs_molded"] += 1
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
        return alloc, molded

    def _start(
        self, job: Job, plan: ShardPlan | None,
        working: AvailabilityProfile | None,
        alloc: Allocation, molded: bool, backfilled: bool,
    ) -> None:
        """Claim, record and start ``job`` on ``alloc``."""
        now = self._now
        end = now + job.walltime
        self._claim(plan, working, now, end, alloc)
        if self._ledger is not None:
            self._ledger.note_start(
                job,
                now,
                backfilled=backfilled,
                molded=molded,
                cores=alloc.total_cores,
                fingerprint=self._snapshot,
                jumped=self._blocked_ids if backfilled else None,
                hole_until=self._next_start,
                shard=self._name(plan)[1],
            )
        self.server.start_job(job, alloc, backfilled=backfilled)
        self.shards.started(job.job_id)
        if self._skip_ok:
            # R2/R3: this start keeps the shard's plan unless its claim
            # reaches into a reservation window placed so far.  The job
            # left the queue and its claim moved the shard's version: the
            # plan is filed under the fingerprint the echo pass will compute
            plan.queue = tuple(j for j in plan.queue if j != job.job_id)
            plan.resources = None
            if plan.min_res_start is not None and end > plan.min_res_start:
                plan.overlapped = True
        self.stats["jobs_backfilled" if backfilled else "jobs_started"] += 1

    def _plan_reservation(
        self, job: Job, plan: ShardPlan | None, working: AvailabilityProfile
    ) -> bool:
        """Reserve the earliest window that fits the blocked ``job``.
        Returns False when the request can never fit this view."""
        prof = self._prof
        if prof is not None:
            suffix = self._name(plan)[0]
            prof.begin("reservation_plan" + suffix)
            prof.begin("earliest_fit" + suffix)
        now = self._now
        try:
            # probe_start=False: this job just failed to start at `now`
            # against this very profile, so the window query at the bound
            # is already known to fail
            start, alloc = working.earliest_fit(
                job.request, job.walltime, after=now, probe_start=False
            )
        except NoFitError:
            start = None
        if prof is not None:
            prof.end()
        if start is None:
            if self._outcome is not None:
                self._outcome[job.job_id] = ("queued_behind", "request can never fit")
        else:
            self._claim(plan, working, start, start + job.walltime, alloc)
            if plan is None:
                for shard_plan in self._plans:
                    shard_plan.res_count += 1
            else:
                plan.res_count += 1
                plan.reserved[job.job_id] = (start, alloc)
                if plan.min_res_start is None or start < plan.min_res_start:
                    plan.min_res_start = start
            self.stats["reservations_created"] += 1
            self.trace.record(
                now,
                EventKind.RESERVATION_CREATE,
                job_id=job.job_id,
                start=start,
                cores=alloc.total_cores,
            )
            if self._ledger is not None:
                self._ledger.note_reservation(
                    job, now, start, alloc.total_cores,
                    lambda: self._waiting_on(start), self._snapshot,
                    shard=self._name(plan)[1],
                )
            self._hold(job.job_id, start)
        if prof is not None:
            prof.end()
        return start is not None

    def _waiting_on(self, start: float) -> list[str]:
        """What a reservation at ``start`` waits on: running jobs that
        release by its start, plus earlier reservations of this pass due to
        start before it.  The ledger asks only when it writes a record."""
        return [
            j.job_id
            for j in self.server.active_jobs()
            if j.walltime_end <= start + 1e-9
        ] + [jid for jid, s in self._reserved_ahead if s <= start + 1e-9]
