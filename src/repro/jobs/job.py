"""The job record shared by the server, the scheduler and the metrics layer."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.allocation import Allocation, ResourceRequest

if TYPE_CHECKING:
    from repro.jobs.evolution import EvolutionProfile


class JobFlexibility(enum.Enum):
    """Feitelson & Rudolph's four-way job classification (paper Section I)."""

    RIGID = "rigid"
    MOLDABLE = "moldable"
    MALLEABLE = "malleable"
    EVOLVING = "evolving"


class JobState(enum.Enum):
    """Lifecycle states, including the paper's ``dynqueued``.

    ``DYNQUEUED`` marks a *running* job whose dynamic resource request is
    pending at the server (Section III-B): the application keeps executing,
    but the server will not accept a second concurrent request from it.
    """

    # members hash by identity, in C: the server's move table and its
    # state counts key dicts on the state on every transition
    __hash__ = object.__hash__

    QUEUED = "queued"
    RUNNING = "running"
    DYNQUEUED = "dynqueued"
    COMPLETED = "completed"
    ABORTED = "aborted"


_job_counter = itertools.count(1)


def _next_job_seq() -> int:
    return next(_job_counter)


def reserve_job_seqs(n: int) -> int:
    """Take ``n`` consecutive :attr:`Job.seq` values; return the first.

    Jobs built later with ``seq=`` set to one of them get the ids they
    would have had if built now, and jobs built in between get none of
    them.
    """
    global _job_counter
    if n < 0:
        raise ValueError(f"negative reservation: {n}")
    first = next(_job_counter)
    _job_counter = itertools.count(first + n)
    return first


@dataclass(eq=False)
class Job:
    """A batch job.  Identity semantics: two jobs are equal only if they are
    the same object (hashable, usable as dict keys).

    Static attributes describe the submission (``qsub``); mutable attributes
    are maintained by the server/scheduler as the job progresses.  The
    ``metadata`` dict carries workload-specific tags (ESP type letter,
    evolving-run bookkeeping) without polluting the core model.
    """

    request: ResourceRequest
    walltime: float
    user: str = "user"
    group: str = "group"
    account: str = "default"
    job_class: str = "batch"
    qos: str = "normal"
    flexibility: JobFlexibility = JobFlexibility.RIGID
    #: Z-type ESP jobs: once submitted, highest priority + backfill lockdown.
    top_priority: bool = False
    evolution: "EvolutionProfile | None" = None
    #: for MOLDABLE jobs: the smallest allocation the application accepts;
    #: the scheduler may start the job anywhere in [min_cores, request]
    #: (0 = not moldable below the requested size)
    min_cores: int = 0
    #: Torque-style dependency: this job becomes eligible only once the named
    #: job reaches the required state ("after" = started, "afterok" =
    #: completed successfully, "afterany" = finished either way).  SLURM's
    #: expand idiom submits its helper with exactly such an indicator
    #: (paper Section V).
    depends_on: str | None = None
    dependency_type: str = "afterok"
    #: process-wide monotone sequence number; the deterministic tie-breaker
    #: for every ordering decision (string job ids do not sort numerically)
    seq: int = field(default_factory=_next_job_seq)
    job_id: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)

    # -- mutable lifecycle state (owned by the server) --------------------
    state: JobState = JobState.QUEUED
    #: operator hold (Torque ``qhold``): "user" or "system"; a held job
    #: stays queued but is invisible to the scheduler until released
    hold: str | None = None
    submit_time: float | None = None
    start_time: float | None = None
    end_time: float | None = None
    allocation: Allocation | None = None
    #: True when the job was started by the backfill pass rather than the
    #: priority pass — such jobs are eligible for preemption by dynamic
    #: requests when preemption is enabled.
    backfilled: bool = False
    #: Total delay (seconds) inflicted on this job by dynamic allocations
    #: while it was queued; the DFSSingleJobDelay policy bounds this.
    accrued_delay: float = 0.0
    #: Count of dynamic requests granted / rejected for this job.
    dyn_granted: int = 0
    dyn_rejected: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            self.job_id = f"job.{self.seq}"
        if self.walltime <= 0:
            raise ValueError(f"walltime must be positive: {self.walltime}")
        if self.evolution is not None and self.flexibility is not JobFlexibility.EVOLVING:
            raise ValueError("only evolving jobs may carry an evolution profile")
        if self.min_cores:
            if self.flexibility is not JobFlexibility.MOLDABLE:
                raise ValueError("min_cores applies to moldable jobs only")
            if not 0 < self.min_cores <= self.request.total_cores:
                raise ValueError(
                    f"min_cores must be in [1, {self.request.total_cores}]: "
                    f"{self.min_cores}"
                )
            if self.request.is_shaped:
                raise ValueError("moldable molding supports flexible requests only")
        if self.dependency_type not in ("after", "afterok", "afterany"):
            raise ValueError(f"unknown dependency type: {self.dependency_type!r}")
        if self.hold not in (None, "user", "system"):
            raise ValueError(f"unknown hold kind: {self.hold!r}")

    # ------------------------------------------------------------------
    @property
    def is_evolving(self) -> bool:
        return self.flexibility is JobFlexibility.EVOLVING

    @property
    def moldable_floor(self) -> int:
        """Smallest acceptable allocation (the request size if not moldable)."""
        if self.flexibility is JobFlexibility.MOLDABLE and self.min_cores:
            return self.min_cores
        return self.request.total_cores

    @property
    def is_active(self) -> bool:
        """Running, including while a dynamic request is pending."""
        return self.state in (JobState.RUNNING, JobState.DYNQUEUED)

    @property
    def is_finished(self) -> bool:
        return self.state in (JobState.COMPLETED, JobState.ABORTED)

    @property
    def walltime_end(self) -> float:
        """Scheduler's view of when this running job will release resources."""
        if self.start_time is None:
            raise ValueError(f"{self.job_id} has not started")
        return self.start_time + self.walltime

    @property
    def wait_time(self) -> float:
        """Queue waiting time (start - submit)."""
        if self.submit_time is None or self.start_time is None:
            raise ValueError(f"{self.job_id} has no complete wait record")
        return self.start_time - self.submit_time

    @property
    def turnaround_time(self) -> float:
        if self.submit_time is None or self.end_time is None:
            raise ValueError(f"{self.job_id} has no complete turnaround record")
        return self.end_time - self.submit_time

    @property
    def esp_type(self) -> str | None:
        """ESP type letter when this job came from the ESP workload."""
        return self.metadata.get("esp_type")

    def __repr__(self) -> str:
        return (
            f"<Job {self.job_id} {self.user} {self.request} "
            f"wt={self.walltime:.0f}s {self.flexibility.value} {self.state.value}>"
        )
