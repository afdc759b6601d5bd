"""Service-facing data types: snapshots, errors and the admission policy.

Everything a tenant sees through :class:`repro.service.SchedulerService` is
defined here, deliberately decoupled from the scheduler's internal objects:
the API hands out immutable *snapshots* (:class:`JobInfo`,
:class:`QueueInfo`, :class:`GrowResult`) rather than live :class:`Job`
references, so concurrent clients can never mutate policy state from the
outside and a future remote transport only has to serialise plain
dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.jobs.job import Job

__all__ = [
    "AdmissionError",
    "AdmissionPolicy",
    "GrowResult",
    "JobInfo",
    "QueueInfo",
    "ServiceClosed",
    "ServiceError",
    "UnknownJob",
]


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """Base class for scheduler-service failures."""


class ServiceClosed(ServiceError):
    """The service is not running (never started, or already stopped)."""


class UnknownJob(ServiceError):
    """The referenced job id is not known to the backend."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job: {job_id}")
        self.job_id = job_id


class AdmissionError(ServiceError):
    """A submission was refused by the admission policy (throttled)."""

    def __init__(self, principal: str, reason: str) -> None:
        super().__init__(f"submission refused for {principal!r}: {reason}")
        self.principal = principal
        self.reason = reason


# ----------------------------------------------------------------------
# tenancy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-principal admission throttling for the service's submit path.

    ``max_open_per_account`` bounds how many *open* jobs (queued, running
    or dyn-queued — anything not yet terminal) one principal may have in
    the system at once; ``max_total_open`` bounds the sum across all
    principals.  ``None`` disables the respective limit, and the default
    policy admits everything — throttling is opt-in so the bit-identity
    oracle runs are never perturbed by it.
    """

    max_open_per_account: int | None = None
    max_total_open: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_open_per_account", "max_total_open"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive: {value}")

    def check(self, principal: str, open_for_principal: int, open_total: int) -> None:
        """Raise :class:`AdmissionError` if admitting one more job would
        exceed a limit."""
        if (
            self.max_open_per_account is not None
            and open_for_principal >= self.max_open_per_account
        ):
            raise AdmissionError(
                principal,
                f"open-job limit reached "
                f"({open_for_principal}/{self.max_open_per_account})",
            )
        if self.max_total_open is not None and open_total >= self.max_total_open:
            raise AdmissionError(
                principal,
                f"system open-job limit reached ({open_total}/{self.max_total_open})",
            )


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class JobInfo:
    """Immutable snapshot of one job's externally visible state."""

    job_id: str
    user: str
    account: str
    state: str
    cores_requested: int
    cores_allocated: int
    submit_time: float | None
    start_time: float | None
    end_time: float | None
    walltime: float
    evolving: bool
    dyn_granted: int
    dyn_rejected: int
    accrued_delay: float

    @classmethod
    def from_job(cls, job: Job) -> "JobInfo":
        allocation = job.allocation
        return cls(
            job_id=job.job_id,
            user=job.user,
            account=job.account,
            state=job.state.value,
            cores_requested=job.request.total_cores,
            cores_allocated=0 if allocation is None else allocation.total_cores,
            submit_time=job.submit_time,
            start_time=job.start_time,
            end_time=job.end_time,
            walltime=job.walltime,
            evolving=job.is_evolving,
            dyn_granted=job.dyn_granted,
            dyn_rejected=job.dyn_rejected,
            accrued_delay=job.accrued_delay,
        )


@dataclass(frozen=True, slots=True)
class QueueInfo:
    """Immutable snapshot of the backend's queue and clock state."""

    now: float
    queued: int
    running: int
    dynqueued: int
    finished: int
    total_jobs: int
    pending_events: int
    open_by_principal: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class GrowResult:
    """Outcome of a dynamic grant request driven through the service."""

    job_id: str
    granted: bool
    cores: int
    #: simulation time at which the request resolved
    resolved_at: float
