"""The always-on scheduler service.

:class:`SchedulerService` turns the policy core into a long-lived asyncio
service: many concurrent tenants submit, cancel, query and negotiate
dynamic grants through coroutine calls, while a single consumer task
serialises every command onto the backend.  That single-consumer design is
what preserves the repo's bit-identity discipline — commands are applied
in FIFO arrival order, so a given submission order produces exactly one
schedule no matter how many client coroutines raced to enqueue it.

Time does not pass on its own: the simulation-facing backends advance when
a client awaits :meth:`SchedulerService.drain` (run until idle) or
:meth:`~SchedulerService.run_until` (bounded advance).  During a drain the
service processes the engine in batches and interleaves newly arrived
commands between batches, so tenants can keep submitting and querying
*while* the backend runs — the always-on behaviour of a real batch system,
compressed onto the simulator's virtual clock.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Callable

from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job, JobState
from repro.obs.fairness import principal_of
from repro.obs.instruments import SERVICE_COUNTERS, mirror_stats
from repro.service.api import (
    AdmissionError,
    AdmissionPolicy,
    GrowResult,
    JobInfo,
    QueueInfo,
    ServiceClosed,
    UnknownJob,
)
from repro.service.backend import Backend
from repro.sim.events import EventKind, TraceEvent
from repro.workloads.spec import JobSpec

__all__ = ["SchedulerService"]

log = logging.getLogger("repro.service")

#: engine events processed per drain batch before newly arrived commands
#: are interleaved; large enough to amortise the asyncio hop, small enough
#: that a tenant's query never waits behind a whole campaign
_DEFAULT_BATCH_EVENTS = 4096


class _Command:
    """One queued API command: a closure plus the future awaiting it."""

    __slots__ = ("fn", "future", "drains")

    def __init__(
        self, fn: Callable[[], Any], future: asyncio.Future, *, drains: bool = False
    ) -> None:
        self.fn = fn
        self.future = future
        #: drain/run_until commands are handled by the consumer's advance
        #: loop rather than executed as plain closures
        self.drains = drains


_SHUTDOWN = object()

_EXITS = (EventKind.JOB_END, EventKind.JOB_ABORT)


class SchedulerService:
    """Submission/query front-end over a pluggable scheduler backend."""

    def __init__(
        self,
        backend: Backend,
        *,
        admission: AdmissionPolicy | None = None,
        batch_events: int = _DEFAULT_BATCH_EVENTS,
    ) -> None:
        if batch_events <= 0:
            raise ValueError(f"batch_events must be positive: {batch_events}")
        self.backend = backend
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.batch_events = batch_events
        self._queue: asyncio.Queue | None = None
        self._consumer: asyncio.Task | None = None
        #: job id -> principal of each job admitted through this service
        #: that has not ended yet, and principal -> how many; a job leaves
        #: both at its ``JOB_END`` or ``JOB_ABORT`` (:meth:`_on_event`)
        self._owner: dict[str, str] = {}
        self._open: dict[str, int] = {}
        self.stats: dict[str, int] = {
            "commands": 0,
            "submitted": 0,
            "admission_rejected": 0,
            "cancelled": 0,
            "grow_requests": 0,
            "cycles": 0,
            "events_processed": 0,
        }
        mirror_stats(backend.core.telemetry, SERVICE_COUNTERS, self.stats)
        # for the service's whole life: the backend can advance after stop()
        backend.core.trace.subscribe(self._on_event)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._consumer is not None and not self._consumer.done()

    async def start(self) -> None:
        """Start the consumer task (idempotent)."""
        if self.running:
            return
        self._queue = asyncio.Queue()
        self._consumer = asyncio.create_task(
            self._consume(), name="repro-scheduler-service"
        )
        log.info("service started on backend %r", self.backend.name)

    async def stop(self) -> None:
        """Stop the consumer after the commands already queued are done."""
        if not self.running:
            return
        assert self._queue is not None
        self._queue.put_nowait(_SHUTDOWN)
        await self._consumer
        self._consumer = None
        self._queue = None
        log.info("service stopped (clean shutdown)")

    async def __aenter__(self) -> "SchedulerService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # tenant API (all coroutine-safe; commands apply in arrival order)
    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec) -> JobInfo:
        """Admit and submit one job; raises :class:`AdmissionError` when
        the tenant is throttled."""
        return await self._call(lambda: self._do_submit(spec))

    async def cancel(self, job_id: str, reason: str = "cancelled") -> JobInfo:
        """Cancel a queued job (``qdel``)."""
        return await self._call(lambda: self._do_cancel(job_id, reason))

    async def job_info(self, job_id: str) -> JobInfo:
        """Snapshot one job's state; raises :class:`UnknownJob`."""
        return await self._call(lambda: self._do_job_info(job_id))

    async def queue_info(self) -> QueueInfo:
        """Snapshot queue depths, clock and per-principal open counts."""
        return await self._call(self._do_queue_info)

    async def request_grow(
        self, job_id: str, cores: int, *, timeout: float | None = None
    ) -> GrowResult:
        """Enter a dynamic grant request for a *running* job.

        Resolves once the scheduler grants or rejects the request — which
        happens while some client drains the backend, so callers typically
        ``asyncio.create_task`` this and then await :meth:`drain`.  With
        ``timeout`` the request uses the negotiation protocol (seconds of
        *simulation* time before it expires).
        """
        if cores <= 0:
            raise ValueError(f"cores must be positive: {cores}")
        loop = asyncio.get_running_loop()
        resolved: asyncio.Future = loop.create_future()

        def _entered() -> None:
            job = self._find_or_raise(job_id)

            def _on_resolution(allocation) -> None:
                if not resolved.done():
                    resolved.set_result(
                        GrowResult(
                            job_id=job_id,
                            granted=allocation is not None,
                            cores=cores,
                            resolved_at=self.backend.now,
                        )
                    )

            self.backend.request_grow(
                job,
                ResourceRequest(cores=cores),
                _on_resolution,
                timeout=timeout,
            )
            self.stats["grow_requests"] += 1

        await self._call(_entered)
        return await resolved

    async def drain(self) -> int:
        """Advance the backend until it has no pending events.

        Newly arriving commands are interleaved between event batches, so
        other tenants stay responsive during long drains.  Returns the
        number of engine events processed.
        """
        return await self._call(None, drains=True)

    async def run_until(self, time: float) -> int:
        """Advance the backend's clock up to ``time`` (same interleaving)."""
        return await self._call(lambda: float(time), drains=True)

    def metrics(self):
        """Workload metrics over everything the backend has seen.

        Synchronous and read-only by design: it reflects state as of the
        last processed command, exactly like scraping a metrics endpoint.
        """
        return self.backend.metrics()

    # ------------------------------------------------------------------
    # command plumbing
    # ------------------------------------------------------------------
    async def _call(self, fn: Callable[[], Any] | None, *, drains: bool = False):
        if not self.running or self._queue is None:
            raise ServiceClosed("service is not running; use 'async with' or start()")
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Command(fn or (lambda: None), future, drains=drains))
        return await future

    def _execute(self, cmd: _Command) -> None:
        self.stats["commands"] += 1
        try:
            result = cmd.fn()
        except Exception as exc:
            if not cmd.future.done():
                cmd.future.set_exception(exc)
        else:
            if not cmd.future.done():
                cmd.future.set_result(result)

    async def _consume(self) -> None:
        assert self._queue is not None
        queue = self._queue
        while True:
            cmd = await queue.get()
            if cmd is _SHUTDOWN:
                return
            if cmd.drains:
                await self._drain_backend(cmd)
                continue
            self._execute(cmd)

    async def _drain_backend(self, cmd: _Command) -> None:
        """Advance the backend, interleaving queued commands between batches.

        Nested drain commands encountered mid-drain simply share this
        drain's completion (the backend is idle either way); a shutdown
        sentinel is re-queued so the consumer loop exits right after.
        """
        assert self._queue is not None
        queue = self._queue
        bound = cmd.fn()
        until = bound if isinstance(bound, float) else None
        waiters = [cmd.future]
        processed = 0
        stop_after = False
        error: Exception | None = None
        self.backend.begin_cycle()
        try:
            while self.backend.pending():
                if until is not None:
                    peek = self.backend.core.engine.peek_time()
                    if peek is None or peek > until:
                        break
                processed += self.backend.advance(
                    until=until, batch=self.batch_events
                )
                self.stats["cycles"] += 1
                # let client coroutines run, then apply what they enqueued
                await asyncio.sleep(0)
                while not queue.empty():
                    nxt = queue.get_nowait()
                    if nxt is _SHUTDOWN:
                        stop_after = True
                    elif nxt.drains:
                        waiters.append(nxt.future)
                    else:
                        self._execute(nxt)
        except Exception as exc:
            # a backend failure belongs to the drain's awaiters, not to the
            # consumer task — the service stays up for other tenants
            error = exc
        finally:
            self.backend.end_cycle()
        self.stats["events_processed"] += processed
        for future in waiters:
            if not future.done():
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(processed)
        if stop_after:
            queue.put_nowait(_SHUTDOWN)

    # ------------------------------------------------------------------
    # command bodies (run inside the consumer task)
    # ------------------------------------------------------------------
    def _find_or_raise(self, job_id: str) -> Job:
        job = self.backend.find_job(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def _on_event(self, ev: TraceEvent) -> None:
        """Close an admitted job at its exit event."""
        if ev.kind in _EXITS:
            principal = self._owner.pop(ev.payload["job_id"], None)
            if principal is None:
                return
            if self._open[principal] > 1:
                self._open[principal] -= 1
            else:
                del self._open[principal]

    def _do_submit(self, spec: JobSpec) -> JobInfo:
        principal = principal_of(spec)
        open_mine = self._open.get(principal, 0)
        try:
            self.admission.check(principal, open_mine, len(self._owner))
        except AdmissionError:
            self.stats["admission_rejected"] += 1
            raise
        job = self.backend.submit(spec)
        self._owner[job.job_id] = principal
        self._open[principal] = open_mine + 1
        self.stats["submitted"] += 1
        return JobInfo.from_job(job)

    def _do_cancel(self, job_id: str, reason: str) -> JobInfo:
        job = self._find_or_raise(job_id)
        self.backend.cancel(job, reason)
        self.stats["cancelled"] += 1
        return JobInfo.from_job(job)

    def _do_job_info(self, job_id: str) -> JobInfo:
        return JobInfo.from_job(self._find_or_raise(job_id))

    def _do_queue_info(self) -> QueueInfo:
        server = self.backend.core.server
        counts = server.state_counts
        return QueueInfo(
            now=self.backend.now,
            queued=counts[JobState.QUEUED],
            running=counts[JobState.RUNNING],
            dynqueued=counts[JobState.DYNQUEUED],
            finished=counts[JobState.COMPLETED] + counts[JobState.ABORTED]
            + server.jobs_discarded,
            total_jobs=len(server.jobs) + server.jobs_discarded,
            pending_events=self.backend.pending(),
            open_by_principal=dict(sorted(self._open.items())),
        )

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"<SchedulerService {state} backend={self.backend.name!r}>"
