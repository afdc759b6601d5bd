"""Server-side queues: the static job queue and the FIFO dynamic-request queue."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.jobs.job import Job, JobState

__all__ = ["JobQueue", "DynRequest"]


@dataclass
class DynRequest:
    """A pending dynamic allocation request from a running evolving job.

    ``callback`` is invoked exactly once with the granted :class:`Allocation`
    or ``None`` on rejection; it routes the answer back through the mother
    superior to the application's ``tm_dynget`` call.

    Negotiated requests (the paper's Section III-C outlook, implemented here
    as an extension) additionally carry a ``deadline``: instead of being
    rejected when resources are unavailable, the request stays queued until
    the deadline, and the scheduler publishes its best availability estimate
    through ``on_estimate``.
    """

    job: Job
    request: ResourceRequest | None
    submit_time: float
    callback: Callable[[Allocation | None], None]
    #: runtime-elasticity variant (after Kumar et al. [23], paper Section V):
    #: instead of more cores, the job asks to keep its *current* cores for
    #: this many extra seconds; ``request`` is None for these
    extend_walltime: float | None = None
    #: absolute simulation time after which the request is auto-rejected;
    #: None = classic immediate grant-or-reject semantics
    deadline: float | None = None
    #: invoked (possibly repeatedly) with the scheduler's earliest-start
    #: estimate for the requested resources
    on_estimate: Callable[[float], None] | None = None
    #: last estimate published to the application
    estimate: float | None = field(default=None, init=False)
    resolved: bool = field(default=False, init=False)

    @property
    def negotiated(self) -> bool:
        return self.deadline is not None

    @property
    def is_extension(self) -> bool:
        return self.extend_walltime is not None

    def publish_estimate(self, available_at: float) -> None:
        """Publish a (new) availability estimate to the application."""
        if self.estimate is not None and abs(self.estimate - available_at) < 1e-9:
            return
        self.estimate = available_at
        if self.on_estimate is not None:
            self.on_estimate(available_at)

    def resolve(self, grant: Allocation | None) -> None:
        if self.resolved:
            raise RuntimeError(f"dynamic request for {self.job.job_id} resolved twice")
        self.resolved = True
        self.callback(grant)

    def __repr__(self) -> str:
        return (
            f"<DynRequest {self.job.job_id} +{self.request} "
            f"@{self.submit_time:.1f}{' resolved' if self.resolved else ''}>"
        )


class JobQueue:
    """Ordered container of queued (idle) jobs.

    Submission order is preserved; the scheduler applies its own priority
    ordering on top.  The queue only ever contains jobs in state ``QUEUED``.
    """

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        #: ids of ``_jobs`` and how many of them are ESP Z-type, kept by
        #: push/remove so membership and the lockdown test are O(1)
        self._ids: set[str] = set()
        self._top_priority = 0

    def push(self, job: Job) -> None:
        if job.state is not JobState.QUEUED:
            raise ValueError(f"{job.job_id} is {job.state.value}, not queued")
        if job.job_id in self._ids:
            raise ValueError(f"{job.job_id} already queued")
        self._jobs.append(job)
        self._ids.add(job.job_id)
        self._top_priority += job.top_priority

    def remove(self, job: Job) -> None:
        self._jobs.remove(job)
        self._ids.remove(job.job_id)
        self._top_priority -= job.top_priority

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._ids

    def snapshot(self) -> list[Job]:
        """Submission-ordered copy (safe to mutate)."""
        return list(self._jobs)

    @property
    def has_top_priority_job(self) -> bool:
        """True while an ESP Z-type job is waiting (triggers the lockdown)."""
        return self._top_priority > 0

    def __repr__(self) -> str:
        return f"<JobQueue {len(self._jobs)} queued>"
