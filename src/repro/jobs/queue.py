"""Server-side queues: the static job queue and the FIFO dynamic-request queue."""

from __future__ import annotations

from bisect import bisect_left, insort
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


def _rank(job: Job) -> tuple[bool, float, int]:
    return (not job.top_priority, job.submit_time, job.seq)


def _gated(job: Job) -> bool:
    return job.hold is not None or job.depends_on is not None


class JobQueue:
    """Queued (idle) jobs in rank order — ESP Z-type first, then
    ``submit_time``, then ``seq`` — which is the priority order of
    queue-time weights (:meth:`Prioritizer.order`); a preempted job
    re-queues at its rank.  Jobs carrying a hold or dependency are counted
    (holds change through :meth:`set_hold`), so a pass with none skips the
    gate walk.  The queue only ever contains jobs in state ``QUEUED``.
    """

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        #: ids of ``_jobs`` and how many of them are ESP Z-type or gated,
        #: kept by push/remove so membership and both tests are O(1)
        self._ids: set[str] = set()
        self._top_priority = 0
        self._gated = 0

    def push(self, job: Job) -> None:
        if job.state is not JobState.QUEUED:
            raise ValueError(f"{job.job_id} is {job.state.value}, not queued")
        if job.job_id in self._ids:
            raise ValueError(f"{job.job_id} already queued")
        jobs = self._jobs
        if not jobs or _rank(jobs[-1]) < _rank(job):
            jobs.append(job)
        else:
            insort(jobs, job, key=_rank)
        self._ids.add(job.job_id)
        self._top_priority += job.top_priority
        self._gated += _gated(job)

    def remove(self, job: Job) -> None:
        if job.job_id not in self._ids:
            raise ValueError(f"{job.job_id} is not queued")
        del self._jobs[bisect_left(self._jobs, _rank(job), key=_rank)]
        self._ids.remove(job.job_id)
        self._top_priority -= job.top_priority
        self._gated -= _gated(job)

    def set_hold(self, job: Job, kind: str | None) -> None:
        """Set (or clear, with None) ``job.hold``, keeping the gate count."""
        if job.job_id in self._ids:
            self._gated += (kind is not None or job.depends_on is not None) - _gated(job)
        job.hold = kind

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._ids

    def snapshot(self) -> list[Job]:
        """Rank-ordered copy (safe to mutate)."""
        return list(self._jobs)

    @property
    def has_top_priority_job(self) -> bool:
        """True while an ESP Z-type job is waiting (triggers the lockdown)."""
        return self._top_priority > 0

    @property
    def has_gated_job(self) -> bool:
        """True while a queued job carries a hold or a dependency."""
        return self._gated > 0

    def __repr__(self) -> str:
        return f"<JobQueue {len(self._jobs)} queued>"
