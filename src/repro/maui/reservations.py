"""What-if planning: StartNow/StartLater classification and reservations.

``plan_static`` walks the prioritised queue and, against a working copy of
the availability profile, gives every considered job its earliest possible
start.  Jobs that fit immediately are *StartNow*; blocked jobs receive future
reservations and are *StartLater*.  Planning stops once ``depth`` StartLater
reservations exist (Fig. 5: the delay measurement plans to
``max(ReservationDepth, ReservationDelayDepth)``).

This is not the planner that starts jobs: the scheduler's static pass
(:mod:`repro.maui.staticpass`) is a separate walk.  ``plan_static`` serves
only the questions asked of a hypothetical — the baseline and claimed plans
of the delay measurement (:mod:`repro.maui.delay`, from
``MauiScheduler._delay_context``) and the planned start that
``MauiScheduler.explain`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.allocation import Allocation
from repro.cluster.profile import AvailabilityProfile, NoFitError
from repro.jobs.job import Job

__all__ = ["AdminReservation", "PlannedJob", "StaticPlan", "plan_static"]


@dataclass(frozen=True)
class AdminReservation:
    """A standing administrative reservation (maintenance window).

    Maui sites block nodes for maintenance with standing reservations; jobs
    must neither be scheduled nor dynamically expanded onto the reserved
    cores during the window.  Already-running jobs are not killed — the
    operator drains them (policy decision outside the scheduler).
    """

    cores_by_node: dict
    start: float
    end: float
    name: str = "maintenance"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty reservation window [{self.start}, {self.end})")
        if not self.cores_by_node:
            raise ValueError("reservation needs at least one node")
        for node, cores in self.cores_by_node.items():
            if cores <= 0:
                raise ValueError(f"non-positive cores on node {node}")

    def overlaps(self, start: float, end: float) -> bool:
        """Does the window intersect ``[start, end)``?"""
        return self.start < end and start < self.end


@dataclass(frozen=True, slots=True)
class PlannedJob:
    """One job's planned start within an iteration."""

    job: Job
    start: float
    allocation: Allocation

    @property
    def end(self) -> float:
        return self.start + self.job.walltime


@dataclass
class StaticPlan:
    """Result of the priority pass (before any job is actually started)."""

    now: float
    start_now: list[PlannedJob] = field(default_factory=list)
    start_later: list[PlannedJob] = field(default_factory=list)
    #: jobs whose request can never fit the profile (oversized for the
    #: partition in view); they are skipped, never silently dropped
    unschedulable: list[Job] = field(default_factory=list)
    #: memoised :meth:`starts_by_job` — plans are written once by
    #: ``plan_static`` and then only read
    _starts: dict[str, float] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def planned(self) -> list[PlannedJob]:
        """All planned jobs in priority order (StartNow and StartLater)."""
        merged = self.start_now + self.start_later
        merged.sort(key=lambda p: (p.start, p.job.submit_time, p.job.seq))
        return merged

    def starts_by_job(self) -> dict[str, float]:
        """job_id → planned start, for delay comparisons (cached)."""
        if self._starts is None:
            self._starts = {
                p.job.job_id: p.start for p in self.start_now + self.start_later
            }
        return self._starts


def plan_static(
    ordered_jobs: list[Job],
    profile: AvailabilityProfile,
    now: float,
    depth: int,
) -> StaticPlan:
    """Plan starts/reservations for the prioritised queue.

    ``profile`` is mutated: each planned job's reservation is claimed into
    it, so pass a copy when the caller needs the original intact.  Jobs past
    the ``depth``-th StartLater reservation are left unplanned (they are the
    backfill candidates).
    """
    plan = StaticPlan(now=now)
    for job in ordered_jobs:
        if len(plan.start_later) >= depth:
            break
        if not profile.quick_reject(now, job.request, job.walltime):
            alloc = profile.fits_at(now, job.walltime, job.request)
            if alloc is not None:
                profile.add_claim(now, now + job.walltime, alloc)
                plan.start_now.append(PlannedJob(job, now, alloc))
                continue
        try:
            # probe_start=False: the window at `now` is known to fail
            start, alloc = profile.earliest_fit(
                job.request, job.walltime, after=now, probe_start=False
            )
        except NoFitError:
            plan.unschedulable.append(job)
            continue
        profile.add_claim(start, start + job.walltime, alloc)
        plan.start_later.append(PlannedJob(job, start, alloc))
    return plan
