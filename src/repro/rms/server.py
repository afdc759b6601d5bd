"""The ``pbs_server``: job queues, lifecycle, and the dynamic-request path.

The server owns all job state transitions: each one is a row of ``_MOVES``
made by :meth:`Server._move`.  The scheduler (a separate component, as in
Torque/Maui) decides *what* to run and calls back into the server to
actually start jobs, grant or reject dynamic requests, and preempt
backfilled jobs.  Every transition is recorded in the shared trace log.

Workflow for a dynamic allocation (paper Fig. 3):

1. application calls ``tm_dynget`` on its :class:`~repro.rms.tm.TMContext`
2. the mother superior forwards it here → job enters ``dynqueued``,
   a :class:`~repro.jobs.queue.DynRequest` is appended to the FIFO dynamic
   queue, and a scheduling cycle is triggered
3. the scheduler resolves the request via :meth:`Server.grant_dynamic` or
   :meth:`Server.reject_dynamic`; on grant the new nodes ``dyn_join`` and the
   application receives the expanded hostlist.
"""

from __future__ import annotations

import logging
from typing import Callable, Protocol

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.node import NodeState
from repro.jobs.job import Job, JobState
from repro.jobs.queue import DynRequest, JobQueue
from repro.obs.instruments import mirror_server
from repro.rms.tm import TMContext
from repro.sim.engine import Engine, EventHandle, PRIORITY_LIMIT
from repro.sim.events import EventKind, TraceLog

__all__ = ["Server", "Application"]

log = logging.getLogger("repro.rms.server")

_Q, _R, _D = JobState.QUEUED, JobState.RUNNING, JobState.DYNQUEUED
_DONE, _FAILED = JobState.COMPLETED, JobState.ABORTED
#: the job lifecycle: operation -> {state it may leave: state it enters}.
#: A self-loop (``alter``, ``resize``) only checks that the operation is
#: allowed; any other operation in any other state is refused.
_MOVES: dict[str, dict[JobState, JobState]] = {
    "submit": dict.fromkeys(JobState, _Q),
    "alter": {_Q: _Q},
    "start": {_Q: _R},
    "cancel": {_Q: _FAILED},
    "ask": {_R: _D},
    "answer": {_D: _R},
    "resize": {_R: _R, _D: _D},
    "complete": {_R: _DONE, _D: _DONE},
    "abort": {_R: _FAILED, _D: _FAILED},
    "requeue": {_R: _Q, _D: _Q},
}


class Application(Protocol):
    """Anything that can run inside a job.

    ``launch`` is called each time the job (re)starts — after a preemption
    the application starts over, so implementations must reset their state on
    every call.
    """

    def launch(self, ctx: TMContext) -> None:  # pragma: no cover - protocol
        ...


class Server:
    """The resource manager server daemon."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        trace: TraceLog | None = None,
        *,
        telemetry=None,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.trace = trace if trace is not None else TraceLog()
        #: optional :class:`repro.obs.Telemetry`; None = fully uninstrumented
        self.telemetry = telemetry
        self.queue = JobQueue()
        #: FIFO of unresolved dynamic requests (paper: prioritised FIFO).
        self.dyn_queue: list[DynRequest] = []
        self.jobs: dict[str, Job] = {}
        #: how many of ``jobs`` are in each state, kept by :meth:`_move`, so
        #: queue depths cost O(1) instead of a walk over ``jobs``
        self.state_counts: dict[JobState, int] = dict.fromkeys(JobState, 0)
        # the lifecycle counters and depth gauges read the trace and the
        # structures above; no transition below reports to them
        mirror_server(telemetry, self)
        #: the TM context of every job holding resources — the scheduler's
        #: working set.  ``jobs`` grows without bound over a run; every
        #: hot-path consumer (profile construction, preemption planning)
        #: reads this index instead of scanning history.
        self._contexts: dict[str, TMContext] = {}
        #: jobs that finished since the scheduler's last pass; its
        #: statistics update drains this, which is when fold-and-discard
        #: drops them
        self._finished_unaccounted: list[Job] = []
        #: monotone counter bumped on every state change; the scheduler's
        #: quiescence check and the active-jobs cache key on it
        self.state_version: int = 0
        self._active_jobs_cache: list[Job] = []
        self._active_jobs_cache_version: int = -1
        #: bumps whenever a *queued* job's request or walltime is altered
        #: (``qalter``) — the one mutation that changes what a queue plans
        #: to without changing its membership or order; part of the same
        #: fingerprints
        self.alter_epoch: int = 0
        self._apps: dict[str, Application | None] = {}
        #: invoked (coalesced by the scheduler) whenever job/resource state
        #: changes — the Maui wake-up condition (i) of Section III-A.
        self.on_state_change: Callable[[], None] | None = None
        #: invoked with the node index after a node actually fails or
        #: recovers — the scheduler re-plans reservations laid on the old
        #: node set (repro.faults drives these transitions)
        self.on_node_event: Callable[[int], None] | None = None
        #: told ``(job, cores)`` at every change of a job's cores: start,
        #: grant, release, merge and every exit (the scheduler's fairshare
        #: tracker accrues usage there); a no-op by default
        self.on_cores: Callable[[Job, int], None] = lambda job, cores: None
        #: optional transient-failure hooks (:mod:`repro.faults`); None
        #: keeps the grant-delivery path a single attribute-is-None check
        self._faults = None
        #: in-flight grant deliveries awaiting a retry after a transient
        #: delivery failure, keyed by job id (one pending dreq per job)
        self._pending_deliveries: dict[str, tuple[EventHandle, DynRequest, Allocation, int]] = {}
        #: optional :class:`repro.obs.windows.WindowedMetrics`; None keeps
        #: teardown and _notify a single attribute-is-None check each
        self._windows = None
        #: with fold-and-discard, folded jobs are dropped from ``jobs`` once
        #: the scheduler has accrued their final fairshare segment
        self._discard_folded = False
        #: count of jobs discarded after folding (bounded-memory replays)
        self.jobs_discarded = 0
        #: terminal states of discarded jobs, so ``afterok``/``afterany``
        #: dependencies on them still resolve.  A str->JobState entry is
        #: ~two orders of magnitude smaller than a retained Job object.
        self._discarded_states: dict[str, JobState] = {}

    def attach_faults(self, faults) -> None:
        """Install transient-failure hooks (``repro.faults.TransientFaults``)."""
        self._faults = faults

    def attach_windows(self, windows, *, fold_and_discard: bool = False) -> None:
        """Install streaming windowed aggregation (``repro.obs.windows``).

        Every finishing job is folded into ``windows`` at teardown; with
        ``fold_and_discard`` it is additionally dropped from the ``jobs``
        index when the scheduler's next pass drains it
        (:meth:`drain_finished_for_stats`), so long replays hold O(windows)
        memory instead of O(jobs).  Note that retained-job reporting
        (:meth:`~repro.metrics.collector.WorkloadMetrics.from_server`)
        is unavailable once jobs have been discarded.
        """
        self._windows = windows
        self._discard_folded = bool(fold_and_discard)

    # ------------------------------------------------------------------
    def _move(self, job: Job, op: str, *, claim: Allocation | None = None) -> None:
        """Make lifecycle move ``op`` on ``job``, or raise ``RuntimeError``
        and change nothing when its state does not allow it.

        ``claim`` is taken on the cluster between the check and the write,
        so a claim that fails leaves the job in the state it was in.
        """
        to = _MOVES[op].get(job.state)
        if to is None:
            held = (
                "has a pending dynamic request"
                if job.state is _D
                else f"is {job.state.value}"
            )
            raise RuntimeError(f"{job.job_id} {held}, cannot {op}")
        if claim is not None:
            self.cluster.claim(claim)
        counts = self.state_counts
        counts[job.state] -= 1
        counts[to] += 1
        job.state = to

    def _notify(self) -> None:
        self.state_version += 1
        if self._windows is not None:
            depth = len(self.queue)
            if depth != self._windows.depth:
                self._windows.observe_queue_depth(self.engine.now, depth)
        if self.on_state_change is not None:
            self.on_state_change()

    def active_jobs(self) -> list[Job]:
        """Jobs currently holding resources, in start order.

        Cached on :attr:`state_version` — membership and start order only
        change through state transitions, every one of which bumps the
        counter via ``_notify``.  Hands out a copy because callers extend
        and re-sort the list they get.
        """
        if self._active_jobs_cache_version != self.state_version:
            active = [ctx.job for ctx in self._contexts.values()]
            active.sort(key=lambda j: (j.start_time, j.seq))
            self._active_jobs_cache = active
            self._active_jobs_cache_version = self.state_version
        return self._active_jobs_cache.copy()

    @property
    def active_count(self) -> int:
        """Number of jobs currently holding resources (O(1))."""
        return len(self._contexts)

    def drain_finished_for_stats(self) -> list[Job]:
        """Jobs finished since the last drain, in completion order.

        Called by the scheduler's statistics update once per pass.  Its
        one job is to let fold-and-discard drop the folded jobs after the
        pass that saw them finish: each drained job leaves the server's
        indexes here, and its terminal state survives in a compact map so
        dependencies on it still resolve.  Usage is not charged here; it
        accrued when the job's cores changed (``on_cores``).
        """
        drained = self._finished_unaccounted
        self._finished_unaccounted = []
        if self._discard_folded and drained:
            for job in drained:
                if self.jobs.pop(job.job_id, None) is not None:
                    self.state_counts[job.state] -= 1
                    self._apps.pop(job.job_id, None)
                    self._discarded_states[job.job_id] = job.state
                    self.jobs_discarded += 1
        return drained

    def dependency_satisfied(self, job: Job) -> bool:
        """Is this job's dependency (if any) fulfilled?

        An unknown dependency target counts as unsatisfied — a dangling
        ``afterok`` must hold the job back, not release it.  A dependency on
        a failed job is *never* satisfiable under ``afterok``; callers may
        use :meth:`dependency_failed` to cancel such jobs.
        """
        if job.depends_on is None:
            return True
        target = self.jobs.get(job.depends_on)
        if target is None:
            # a discarded target was torn down, so it started and finished;
            # only its terminal state still matters
            state = self._discarded_states.get(job.depends_on)
            if state is None:
                return False
            return job.dependency_type != "afterok" or state is JobState.COMPLETED
        if job.dependency_type == "after":
            return target.start_time is not None
        if job.dependency_type == "afterok":
            return target.state is JobState.COMPLETED
        return target.is_finished  # afterany

    def dependency_failed(self, job: Job) -> bool:
        """True when the dependency can no longer ever be satisfied."""
        if job.depends_on is None:
            return False
        target = self.jobs.get(job.depends_on)
        if target is None:
            return (
                job.dependency_type == "afterok"
                and self._discarded_states.get(job.depends_on) is JobState.ABORTED
            )
        return (
            job.dependency_type == "afterok"
            and target.state is JobState.ABORTED
        )

    # ------------------------------------------------------------------
    # submission (qsub)
    # ------------------------------------------------------------------
    def submit(self, job: Job, app: Application | None = None) -> Job:
        """Queue a job.  ``app`` defaults to "run for the full walltime"."""
        if job.job_id in self.jobs:
            raise ValueError(f"{job.job_id} already submitted")
        job.submit_time = self.engine.now
        # counted in the state it arrives in, which the move then leaves
        self.state_counts[job.state] += 1
        self._move(job, "submit")
        self.jobs[job.job_id] = job
        self._apps[job.job_id] = app
        self.queue.push(job)
        self.trace.record(
            self.engine.now,
            EventKind.JOB_SUBMIT,
            job_id=job.job_id,
            user=job.user,
            request=str(job.request),
            walltime=job.walltime,
            evolving=job.is_evolving,
        )
        log.info("qsub %s user=%s %s wall=%.0fs", job.job_id, job.user,
                 job.request, job.walltime)
        self._notify()
        return job

    # ------------------------------------------------------------------
    # start / completion (driven by the scheduler and applications)
    # ------------------------------------------------------------------
    def start_job(self, job: Job, allocation: Allocation, *, backfilled: bool = False) -> None:
        """Start a queued job on the given allocation (scheduler's ``qrun``)."""
        if allocation.total_cores < job.moldable_floor:
            raise RuntimeError(
                f"{job.job_id} allocation {allocation.total_cores}c smaller than "
                f"the acceptable minimum {job.moldable_floor}c"
            )
        self._move(job, "start", claim=allocation)
        self.queue.remove(job)
        job.start_time = self.engine.now
        job.allocation = allocation
        job.backfilled = backfilled
        self.on_cores(job, allocation.total_cores)
        ms = min(allocation.node_indices)
        self.trace.record(
            self.engine.now,
            EventKind.BACKFILL_START if backfilled else EventKind.JOB_START,
            job_id=job.job_id,
            user=job.user,
            cores=allocation.total_cores,
            nodes=list(allocation.node_indices),
            cores_by_node=dict(allocation.items()),
            mother_superior=ms,
            wait=job.wait_time,
        )
        log.info("start %s on %dc (backfill=%s wait=%.0fs)", job.job_id,
                 allocation.total_cores, backfilled, job.wait_time or 0.0)
        # walltime enforcement: the job is killed when its time slice expires
        limit = self.engine.after(
            job.walltime, self._walltime_expired, job, priority=PRIORITY_LIMIT
        )
        ctx = self._contexts[job.job_id] = TMContext(self, job, limit, ms)
        app = self._apps[job.job_id]
        if app is not None:
            app.launch(ctx)
        else:
            ctx.after(job.walltime, ctx.finish)
        self._notify()

    def complete_job(self, job: Job) -> None:
        """Normal completion, reported by the application through TM."""
        self._teardown(job, "complete", EventKind.JOB_END)
        self._notify()

    def _walltime_expired(self, job: Job) -> None:
        # the limit is cancelled whenever the job leaves its nodes
        self._teardown(job, "abort", EventKind.JOB_ABORT, reason="walltime")
        self._notify()

    def abort_job(self, job: Job, reason: str) -> None:
        """Abnormal termination requested by the application or operator."""
        self._teardown(job, "abort", EventKind.JOB_ABORT, reason=reason)
        self._notify()

    def hold_job(self, job: Job, kind: str = "user") -> None:
        """Place a hold on a queued job (Torque ``qhold``).

        Held jobs stay in the queue but are excluded from scheduling until
        :meth:`release_hold`; ``kind`` distinguishes operator/system holds
        from user holds in diagnostics (``scheduler.explain``).
        """
        if kind not in ("user", "system"):
            raise ValueError(f"unknown hold kind: {kind!r}")
        self._move(job, "alter")
        self.queue.set_hold(job, kind)
        self.trace.record(
            self.engine.now,
            EventKind.JOB_HOLD,
            job_id=job.job_id,
            user=job.user,
            hold=kind,
        )
        log.info("qhold %s (%s hold)", job.job_id, kind)
        self._notify()

    def release_hold(self, job: Job) -> None:
        """Release a held job back into scheduling (Torque ``qrls``)."""
        if job.hold is None:
            return
        self.queue.set_hold(job, None)
        self.trace.record(
            self.engine.now,
            EventKind.JOB_RELEASE,
            job_id=job.job_id,
            user=job.user,
        )
        log.info("qrls %s", job.job_id)
        self._notify()

    def cancel_queued(self, job: Job, reason: str = "cancelled") -> None:
        """Remove a queued job before it ever starts (``qdel``)."""
        self._move(job, "cancel")
        self.queue.remove(job)
        job.end_time = self.engine.now
        self.trace.record(
            self.engine.now,
            EventKind.JOB_ABORT,
            job_id=job.job_id,
            user=job.user,
            cores=0,
            runtime=0.0,
            reason=reason,
        )
        # the jobs behind it may now start earlier: wake the scheduler
        self._notify()

    def _leave(self, job: Job, op: str) -> Allocation:
        """Take an active job off its nodes by ``op`` (``complete``,
        ``abort`` or ``requeue``).

        Its pending dynamic request or grant retry, walltime limit, TM
        timers and active-index entry (its TM context) go with it.  A
        requeued job's request is answered None, so the application sees a
        rejection; the other two drop it.  Returns the allocation, still
        claimed.
        """
        self._move(job, op)
        dropped = [d for d in self.dyn_queue if d.job is job]
        for dreq in dropped:
            self.dyn_queue.remove(dreq)
        pending = self._pending_deliveries.pop(job.job_id, None)
        if pending is not None:
            pending[0].cancel()
            dropped.append(pending[1])
        if op == "requeue":
            for dreq in dropped:
                dreq.resolve(None)
        self._contexts.pop(job.job_id)._cancel_all_timers()
        assert job.allocation is not None
        self.on_cores(job, -job.allocation.total_cores)
        return job.allocation

    def _teardown(self, job: Job, op: str, kind: EventKind, **extra) -> None:
        # a job leaving at its walltime end frees what every profile
        # already frees then: the kept shard plans survive it (R7)
        self.cluster.release(
            self._leave(job, op), foreseen=self.engine.now >= job.walltime_end
        )
        job.end_time = self.engine.now
        self._finished_unaccounted.append(job)
        if self._windows is not None:
            self._windows.fold_job(job)
        self.trace.record(
            self.engine.now,
            kind,
            job_id=job.job_id,
            user=job.user,
            cores=job.allocation.total_cores,
            runtime=job.end_time - job.start_time,
            **extra,
        )
        log.info("%s %s after %.0fs", kind.value, job.job_id,
                 job.end_time - job.start_time)

    # ------------------------------------------------------------------
    # dynamic allocation path
    # ------------------------------------------------------------------
    def dyn_request(
        self,
        job: Job,
        request: ResourceRequest,
        callback: Callable[[Allocation | None], None],
        *,
        timeout: float | None = None,
        on_estimate: Callable[[float], None] | None = None,
    ) -> DynRequest:
        """Queue a runtime resource request (job → ``dynqueued``).

        With ``timeout`` (seconds from now) the request uses the negotiation
        protocol: it stays queued until resources arrive or the deadline
        passes, and ``on_estimate`` receives the scheduler's availability
        estimates along the way.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError(f"negotiation timeout must be positive: {timeout}")
        dreq = DynRequest(
            job=job,
            request=request,
            submit_time=self.engine.now,
            callback=callback,
            deadline=None if timeout is None else self.engine.now + timeout,
            on_estimate=on_estimate,
        )
        self._move(job, "ask")
        self.dyn_queue.append(dreq)
        if dreq.deadline is not None:
            self.engine.at(dreq.deadline, self._negotiation_expired, dreq)
        self.trace.record(
            self.engine.now,
            EventKind.DYN_REQUEST,
            job_id=job.job_id,
            user=job.user,
            request=str(request),
            negotiated=dreq.negotiated,
        )
        log.info("dyn_request %s wants %s%s", job.job_id, request,
                 " (negotiated)" if dreq.negotiated else "")
        self._notify()
        return dreq

    def _negotiation_expired(self, dreq: DynRequest) -> None:
        if dreq.resolved or dreq not in self.dyn_queue:
            return
        self.reject_dynamic(dreq, "negotiation timeout")

    def grant_dynamic(self, dreq: DynRequest, allocation: Allocation) -> None:
        """Expand the job's allocation (scheduler decided the request is fair).

        With transient faults attached (:meth:`attach_faults`) the delivery
        of the grant to the mother superior can be dropped; the server then
        retries with exponential backoff (the cores are *not* held across
        the backoff — a retry re-claims and may find the allocation stale)
        and, after exhausting the retry budget, degrades gracefully: the
        application continues at its current allocation, exactly as on a
        rejection.  Without faults this is the single historical code path.
        """
        if dreq not in self.dyn_queue:
            raise RuntimeError(f"{dreq!r} is not pending")
        self.dyn_queue.remove(dreq)
        faults = self._faults
        if faults is not None and faults.drop_delivery(dreq.job.job_id, 1):
            self._delivery_failed(dreq, allocation, attempt=1, reason="delivery dropped")
            return
        self._deliver_grant(dreq, allocation)

    def _deliver_grant(self, dreq: DynRequest, allocation: Allocation) -> None:
        """Actually hand the expanded allocation to the job (may raise)."""
        job = dreq.job
        self._move(job, "answer", claim=allocation)
        assert job.allocation is not None
        job.allocation = job.allocation + allocation
        self.on_cores(job, allocation.total_cores)
        job.dyn_granted += 1
        self.trace.record(
            self.engine.now,
            EventKind.DYN_GRANT,
            job_id=job.job_id,
            user=job.user,
            cores=allocation.total_cores,
            nodes=list(allocation.node_indices),
            cores_by_node=dict(allocation.items()),
            total_cores=job.allocation.total_cores,
        )
        log.info("dyn_grant %s +%dc -> %dc", job.job_id,
                 allocation.total_cores, job.allocation.total_cores)
        dreq.resolve(allocation)
        self._notify()

    def _delivery_failed(
        self, dreq: DynRequest, allocation: Allocation, *, attempt: int, reason: str
    ) -> None:
        """A grant delivery attempt failed: schedule a retry or degrade."""
        job = dreq.job
        self.trace.record(
            self.engine.now,
            EventKind.GRANT_DELIVERY_FAIL,
            job_id=job.job_id,
            user=job.user,
            cores=allocation.total_cores,
            nodes=list(allocation.node_indices),
            attempt=attempt,
            reason=reason,
        )
        log.warning("grant delivery to %s failed (attempt %d): %s",
                    job.job_id, attempt, reason)
        faults = self._faults
        if faults is None or attempt > faults.max_retries:
            self._degrade_delivery(dreq, attempts=attempt, reason=reason)
            return
        faults.note_retry()
        delay = faults.retry_delay(attempt)
        handle = self.engine.after(
            delay, self._retry_delivery, dreq, allocation, attempt + 1
        )
        self._pending_deliveries[job.job_id] = (handle, dreq, allocation, attempt)

    def _retry_delivery(
        self, dreq: DynRequest, allocation: Allocation, attempt: int
    ) -> None:
        job = dreq.job
        self._pending_deliveries.pop(job.job_id, None)
        if dreq.resolved:
            # cancelled while the retry was in flight (preemption, teardown,
            # or the node-failure audit already settled this request)
            return
        faults = self._faults
        if faults is not None and faults.drop_delivery(job.job_id, attempt):
            self._delivery_failed(dreq, allocation, attempt=attempt, reason="delivery dropped")
            return
        try:
            self._deliver_grant(dreq, allocation)
        except ValueError as exc:
            # the allocation went stale during the backoff — a node failed
            # or the cores were claimed by someone else.  Counts as a
            # failed attempt; the retry budget keeps this bounded.
            self._delivery_failed(dreq, allocation, attempt=attempt, reason=str(exc))

    def _degrade_delivery(self, dreq: DynRequest, *, attempts: int, reason: str) -> None:
        """Retry budget exhausted: fail the request cleanly.

        Graceful degradation (paper Section I's fault-tolerance motivation):
        the application sees an ordinary rejection and continues at its
        current allocation.
        """
        if self._faults is not None:
            self._faults.note_degraded()
        self._refuse(
            dreq, f"grant delivery failed after {attempts} attempt(s): {reason}"
        )
        self._notify()

    def reject_dynamic(self, dreq: DynRequest, reason: str = "") -> None:
        """Reject the request; the application continues on its current set."""
        if dreq not in self.dyn_queue:
            raise RuntimeError(f"{dreq!r} is not pending")
        self.dyn_queue.remove(dreq)
        self._refuse(dreq, reason)
        # no notify: a rejection frees nothing and starts nothing

    def _refuse(self, dreq: DynRequest, reason: str) -> None:
        """Answer a request None: its job runs on at its current allocation."""
        job = dreq.job
        self._move(job, "answer")
        job.dyn_rejected += 1
        self.trace.record(
            self.engine.now,
            EventKind.DYN_REJECT,
            job_id=job.job_id,
            user=job.user,
            request=str(dreq.request),
            reason=reason,
        )
        log.info("dyn_reject %s: %s", job.job_id, reason or "no reason")
        dreq.resolve(None)

    def dyn_free(self, job: Job, released: Allocation) -> None:
        """Release part of a running job's allocation (``tm_dynfree``).

        Any subset may go (unlike SLURM's shrink, paper Section V) but the
        mother superior's last core (``RuntimeError``) or cores the job
        does not hold (``ValueError``); a refused release changes nothing.
        """
        self._move(job, "resize")
        ms = self._contexts[job.job_id].mother_superior
        if released[ms] >= job.allocation[ms]:
            raise RuntimeError(f"{job.job_id}: cannot strip mother superior node {ms}")
        job.allocation = job.allocation - released
        self.on_cores(job, -released.total_cores)
        self.cluster.release(released)
        self.trace.record(
            self.engine.now,
            EventKind.DYN_RELEASE,
            job_id=job.job_id,
            user=job.user,
            cores=released.total_cores,
            nodes=list(released.node_indices),
            cores_by_node=dict(released.items()),
            total_cores=job.allocation.total_cores,
        )
        self._notify()

    def request_shrink(self, job: Job, cores_wanted: int) -> int:
        """Ask a running malleable job to give back up to ``cores_wanted``.

        Returns the number of cores actually released (0 when the job has no
        shrink handler or cannot afford any).  This is the batch-system side
        of malleability (paper Sections I and II-B): the *scheduler*
        initiates the operation, the application decides how much it can
        shed and performs the release through ``tm_dynfree``.
        """
        if cores_wanted <= 0:
            raise ValueError(f"cores_wanted must be positive: {cores_wanted}")
        self._move(job, "resize")
        ctx = self._contexts[job.job_id]
        if ctx.shrink_handler is None:
            return 0
        assert job.allocation is not None
        before = job.allocation.total_cores
        released = ctx.shrink_handler(cores_wanted)
        actual = before - job.allocation.total_cores
        if released != actual:
            raise RuntimeError(
                f"{job.job_id}: shrink handler reported {released} cores "
                f"but released {actual}"
            )
        if actual:
            # the DYN_RELEASE events recorded by the handler's tm_dynfree
            # calls show cores moving, but not *why*: this marks the
            # scheduler-initiated shrink as its own observation
            self.trace.record(
                self.engine.now,
                EventKind.MALLEABLE_SHRINK,
                job_id=job.job_id,
                user=job.user,
                cores_wanted=cores_wanted,
                cores_released=actual,
            )
            log.info("malleable shrink %s released %dc of %dc wanted",
                     job.job_id, actual, cores_wanted)
        return actual

    def merge_allocations(self, stub: Job, parent: Job) -> Allocation:
        """Fold a running helper job's allocation into another running job.

        This is the SLURM expand/shrink idiom the paper contrasts with its
        own design (Section V): the application submits a *dependent* job
        sized like the desired expansion; once that job starts, its
        allocation is merged into the parent and the helper terminates.
        Returns the transferred allocation.
        """
        if stub is parent:
            raise ValueError("cannot merge a job into itself")
        self._move(parent, "resize")
        # node-side: helper processes exit, parent spans the new nodes;
        # cluster core counts are unchanged: ownership moves, usage doesn't
        transferred = self._leave(stub, "complete")
        assert parent.allocation is not None
        stub.end_time = self.engine.now
        self._finished_unaccounted.append(stub)
        if self._windows is not None:
            self._windows.fold_job(stub)
        stub.allocation = None
        parent.allocation = parent.allocation + transferred
        self.on_cores(parent, transferred.total_cores)
        parent.dyn_granted += 1
        # cores=0: the busy-core ledger already counts the transferred cores
        # from the stub's start event; the parent's end event releases them.
        self.trace.record(
            self.engine.now,
            EventKind.JOB_END,
            job_id=stub.job_id,
            user=stub.user,
            cores=0,
            runtime=stub.end_time - stub.start_time,
            merged_into=parent.job_id,
        )
        self.trace.record(
            self.engine.now,
            EventKind.DYN_GRANT,
            job_id=parent.job_id,
            user=parent.user,
            cores=0,
            nodes=list(transferred.node_indices),
            total_cores=parent.allocation.total_cores,
            merged_from=stub.job_id,
        )
        self._notify()
        return transferred

    # ------------------------------------------------------------------
    # node failures (fault tolerance, paper Section I)
    # ------------------------------------------------------------------
    def handle_node_failure(self, node_index: int, *, requeue: bool = True) -> list[Job]:
        """A compute node died: requeue (or abort) every job touching it.

        Returns the affected jobs.  Dynamic allocation improves fault
        tolerance "by allocating spare nodes to affected jobs" (Section I);
        here affected jobs are requeued and the scheduler restarts them on
        the surviving nodes at the next iteration.

        Idempotent: a repeat failure report for a node that is already DOWN
        is a no-op — no trace event, no state-version bump, no scheduler
        wake-up.
        """
        if self.cluster.node(node_index).state is NodeState.DOWN:
            return []
        affected = [j for j in self.active_jobs() if node_index in j.allocation]
        self.trace.record(
            self.engine.now,
            EventKind.NODE_FAIL,
            node=node_index,
            affected=[j.job_id for j in affected],
        )
        log.warning("node %d failed; %d job(s) affected", node_index, len(affected))
        # audit in-flight grant deliveries first: a retry holding an
        # allocation that touches the dead node can never succeed, and its
        # owner may not itself be an affected job — fail those cleanly now
        # rather than letting the timer burn the rest of its retry budget
        for job_id, pending in list(self._pending_deliveries.items()):
            handle, pdreq, pallocation, attempt = pending
            if node_index not in pallocation:
                continue
            del self._pending_deliveries[job_id]
            handle.cancel()
            if not pdreq.resolved:
                self._degrade_delivery(
                    pdreq,
                    attempts=attempt,
                    reason=f"node {node_index} failed during delivery",
                )
        # release every affected job so the node is fully idle
        for job in affected:
            if requeue:
                self.preempt_job(job)
                job.metadata["node_failures"] = job.metadata.get("node_failures", 0) + 1
            else:
                self.abort_job(job, reason=f"node {node_index} failed")
        self.cluster.fail_node(node_index)
        if self.on_node_event is not None:
            self.on_node_event(node_index)
        self._notify()
        return affected

    def recover_node(self, node_index: int) -> bool:
        """The node is back: make it schedulable again.

        Idempotent: recovering a node that is already UP is a no-op (no
        trace event, no scheduler wake-up).  Returns True when the node
        actually transitioned.
        """
        if not self.cluster.recover_node(node_index):
            return False
        self.trace.record(self.engine.now, EventKind.NODE_RECOVER, node=node_index)
        if self.on_node_event is not None:
            self.on_node_event(node_index)
        self._notify()
        return True

    # ------------------------------------------------------------------
    # preemption (optional source of resources for dynamic requests)
    # ------------------------------------------------------------------
    def preempt_job(self, job: Job) -> None:
        """Requeue a running job, releasing its resources immediately.

        Checkpointable applications (those that registered a checkpoint
        handler with TM) get a chance to stash their progress first and will
        resume from it; everything else restarts from scratch.
        """
        ctx = self._contexts.get(job.job_id)
        if ctx is not None and ctx.checkpoint_handler:
            ctx.checkpoint_handler()
            self.trace.record(
                self.engine.now,
                EventKind.CHECKPOINT,
                job_id=job.job_id,
                user=job.user,
                work_saved=job.metadata.get("checkpoint_work", 0.0),
            )
            log.info("checkpoint %s before preemption", job.job_id)
        released = self._leave(job, "requeue")
        self.cluster.release(released)
        self.trace.record(
            self.engine.now,
            EventKind.PREEMPT,
            job_id=job.job_id,
            user=job.user,
            cores=released.total_cores,
        )
        # not added to the finished-for-stats drain: the job is queued
        # again, not finished; its usage up to now was folded by _leave
        job.allocation = None
        job.start_time = None
        job.backfilled = False
        job.metadata["preempt_count"] = job.metadata.get("preempt_count", 0) + 1
        self.queue.push(job)
        log.info("preempt %s released %dc", job.job_id, released.total_cores)
        self._notify()

    def __repr__(self) -> str:
        return (
            f"<Server {len(self.queue)} queued, {len(self.dyn_queue)} dynqueued, "
            f"{self.active_count} active>"
        )
