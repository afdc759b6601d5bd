"""Pluggable drivers behind the scheduler service.

A :class:`Backend` owns a :class:`~repro.service.core.PolicyCore` (or, for
a future real-RM adapter, a live resource manager) and exposes the narrow
surface the service needs: submit/cancel/lookup, dynamic grant requests,
and a way to *advance* whatever notion of time the backend has.

Two backends ship today:

* :class:`SimBackend` — the discrete-event simulator, first and reference
  driver.  Driving a workload through the service on this backend is
  bit-identical to a direct :class:`~repro.system.BatchSystem` run.
* :class:`ReplayBackend` — a dry-run driver that ingests a recorded event
  stream (a :class:`~repro.sim.events.TraceLog` or its JSONL export) and
  shadow-schedules the same submissions, node failures and recoveries.
  This is the road to digital-twin mode: feed the twin yesterday's trace,
  compare the shadow schedule against what really happened.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job
from repro.metrics.collector import WorkloadMetrics
from repro.service.core import PolicyCore
from repro.sim.events import EventKind, TraceEvent
from repro.workloads.spec import JobSpec

__all__ = ["Backend", "ReplayBackend", "SimBackend", "parse_request"]


def parse_request(text: str) -> ResourceRequest:
    """Parse the ``str(ResourceRequest)`` wire form back into a request.

    Accepts ``procs=N`` and ``nodes=N:ppn=P`` — exactly the two shapes the
    trace exporter writes, so a recorded stream round-trips.
    """
    try:
        if text.startswith("nodes="):
            nodes_part, ppn_part = text.split(":", 1)
            return ResourceRequest(
                nodes=int(nodes_part.removeprefix("nodes=")),
                ppn=int(ppn_part.removeprefix("ppn=")),
            )
        if text.startswith("procs="):
            return ResourceRequest(cores=int(text.removeprefix("procs=")))
    except ValueError as exc:
        raise ValueError(f"malformed resource request {text!r}") from exc
    raise ValueError(f"malformed resource request {text!r}")


@runtime_checkable
class Backend(Protocol):
    """What the service needs from a driver.

    Implementations wrap a policy core (simulated or real).  All methods
    are synchronous — the service serialises access from its single
    consumer task, so backends never see concurrent calls.
    """

    name: str
    core: PolicyCore

    @property
    def now(self) -> float: ...

    def begin_cycle(self) -> None: ...

    def end_cycle(self) -> None: ...

    def submit(self, spec: JobSpec) -> Job: ...

    def cancel(self, job: Job, reason: str) -> None: ...

    def find_job(self, job_id: str) -> Job | None: ...

    def request_grow(
        self,
        job: Job,
        request: ResourceRequest,
        callback: Callable[[Any], None],
        *,
        timeout: float | None = None,
    ) -> None: ...

    def advance(
        self, *, until: float | None = None, batch: int | None = None
    ) -> int:
        """Run at most ``batch`` events, none past ``until``; return the count."""
        ...

    def pending(self) -> int: ...

    def metrics(self) -> WorkloadMetrics: ...


class SimBackend:
    """The discrete-event simulator as a service driver.

    Owns a :class:`PolicyCore` and reproduces the dispatch order of
    ``Workload.submit_to`` + ``BatchSystem.run``, not its mechanics, so
    that a workload pushed through the service schedules bit-identically
    to the direct path: a spec whose submit time has already passed is
    submitted immediately, a future one gets its own submit event on the
    engine (``submit_to`` keeps one pending arrival per workload on
    reserved sequence numbers, which sort the same), and telemetry is
    armed only once work is queued (see :meth:`PolicyCore.begin_cycle`).
    """

    name = "sim"

    def __init__(self, core: PolicyCore | None = None, **core_kwargs) -> None:
        if core is not None and core_kwargs:
            raise ValueError("pass either a prebuilt core or kwargs, not both")
        self.core = core if core is not None else PolicyCore(**core_kwargs)
        #: accepted jobs whose submit time is still ahead of the clock: the
        #: server has not seen them yet, but they are open for admission
        #: and visible to ``find_job``
        self._scheduled: dict[str, Job] = {}

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        return self.core.engine.now

    def begin_cycle(self) -> None:
        self.core.begin_cycle()

    def end_cycle(self) -> None:
        self.core.end_cycle()

    # -- job lifecycle --------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        job = spec.build_job()
        app = spec.app_factory() if spec.app_factory is not None else None
        engine = self.core.engine
        if spec.submit_time <= engine.now:
            self.core.server.submit(job, app)
        else:
            self._scheduled[job.job_id] = job
            engine.at(spec.submit_time, self._submit_scheduled, job, app)
        return job

    def _submit_scheduled(self, job: Job, app) -> None:
        del self._scheduled[job.job_id]
        self.core.server.submit(job, app)

    def cancel(self, job: Job, reason: str) -> None:
        if job.job_id in self._scheduled:
            raise RuntimeError(f"{job.job_id} is not submitted yet, cannot cancel")
        self.core.server.cancel_queued(job, reason)

    def find_job(self, job_id: str) -> Job | None:
        job = self.core.server.jobs.get(job_id)
        return job if job is not None else self._scheduled.get(job_id)

    def request_grow(
        self,
        job: Job,
        request: ResourceRequest,
        callback: Callable[[Any], None],
        *,
        timeout: float | None = None,
    ) -> None:
        self.core.server.dyn_request(job, request, callback, timeout=timeout)

    # -- time advancement ----------------------------------------------
    def advance(
        self, *, until: float | None = None, batch: int | None = None
    ) -> int:
        return self.core.engine.run(until=until, batch=batch)

    def pending(self) -> int:
        return self.core.engine.pending

    def metrics(self) -> WorkloadMetrics:
        return self.core.metrics()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.core!r}>"


class ReplayBackend(SimBackend):
    """Dry-run driver: shadow-schedule a recorded event stream.

    :meth:`ingest` reads a trace (live :class:`TraceLog`, any iterable of
    :class:`TraceEvent`, or dict rows from the JSONL export) and replays
    its *inputs* — job submissions with their recorded shapes and runtimes,
    node failures and recoveries — against a fresh policy core.  The
    scheduler then re-decides everything downstream (starts, grants,
    backfill), which is the point: the shadow schedule can be diffed
    against the recorded one to validate a policy change offline before it
    touches a real system.

    Replayed jobs run for their *recorded* service time (end − start) when
    the stream contains their completion, falling back to the requested
    walltime for jobs whose end was never recorded (still running when the
    trace was cut).
    """

    name = "replay"

    def ingest(self, events: Iterable[TraceEvent | dict]) -> list[JobSpec]:
        """Convert a recorded stream into submissions and schedule them.

        Returns the derived :class:`JobSpec` list (in recorded submit
        order) so callers can correlate the shadow run back to the source
        stream.
        """
        normalised = [self._normalise(ev) for ev in events]
        runtimes = self._recorded_runtimes(normalised)
        specs: list[JobSpec] = []
        for time, kind, payload in normalised:
            if kind is EventKind.JOB_SUBMIT:
                spec = self._spec_from_submit(time, payload, runtimes)
                specs.append(spec)
                self.submit(spec)
            elif kind is EventKind.NODE_FAIL:
                node = payload.get("node")
                if node is not None:
                    self.core.engine.at(
                        time, self.core.server.handle_node_failure, int(node)
                    )
            elif kind is EventKind.NODE_RECOVER:
                node = payload.get("node")
                if node is not None:
                    self.core.engine.at(
                        time, self.core.server.recover_node, int(node)
                    )
        return specs

    # -- stream decoding -------------------------------------------------
    @staticmethod
    def _normalise(ev: TraceEvent | dict) -> tuple[float, EventKind, dict]:
        if isinstance(ev, TraceEvent):
            return ev.time, ev.kind, ev.payload
        try:
            return float(ev["t"]), EventKind(ev["kind"]), dict(ev.get("payload") or {})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace row: {ev!r}") from exc

    @staticmethod
    def _recorded_runtimes(
        normalised: list[tuple[float, EventKind, dict]]
    ) -> dict[str, float]:
        starts: dict[str, float] = {}
        runtimes: dict[str, float] = {}
        for time, kind, payload in normalised:
            job_id = payload.get("job_id")
            if job_id is None:
                continue
            if kind in (EventKind.JOB_START, EventKind.BACKFILL_START):
                starts[job_id] = time
            elif kind in (EventKind.JOB_END, EventKind.JOB_ABORT):
                start = starts.get(job_id)
                if start is not None and job_id not in runtimes:
                    runtimes[job_id] = time - start
        return runtimes

    def _spec_from_submit(
        self, time: float, payload: dict, runtimes: dict[str, float]
    ) -> JobSpec:
        job_id = payload.get("job_id", "?")
        walltime = float(payload.get("walltime", 0.0))
        if walltime <= 0:
            raise ValueError(f"replayed submit {job_id!r} has no walltime")
        runtime = runtimes.get(job_id, walltime)
        # clamp: a recorded runtime of 0 (instant abort) still needs a
        # positive app duration; the walltime limit enforces the ceiling
        runtime = min(max(runtime, 1e-9), walltime)
        return JobSpec(
            submit_time=time,
            request=parse_request(str(payload.get("request", ""))),
            walltime=walltime,
            user=str(payload.get("user", "unknown")),
            evolving=bool(payload.get("evolving", False)),
            app_factory=(lambda rt=runtime: FixedRuntimeApp(rt)),
        )
