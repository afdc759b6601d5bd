"""Delay measurement for dynamic requests (Algorithm 2, lines 11-14).

Before granting a dynamic request, the scheduler measures how much later
each planned queued job would start if the requested cores were held by the
evolving job until the *rest of its walltime* (Section III-D: "dynamic
reservations are also made until the rest of the walltime of the evolving
job").  The measurement plans the prioritised queue twice — once against the
current profile and once against the profile with the hypothetical claim —
and reports per-job start-time differences as fairness victims.

Delays are clipped at zero: adding a claim can only push starts later, and
tiny negative numerical artefacts must not corrupt the fairness ledgers.
"""

from __future__ import annotations

from repro.cluster.allocation import Allocation
from repro.cluster.profile import AvailabilityProfile
from repro.jobs.job import Job
from repro.maui.fairness import Victim
from repro.maui.reservations import StaticPlan, plan_static

__all__ = ["measure_delays"]


def measure_delays(
    ordered_jobs: list[Job],
    profile: AvailabilityProfile,
    claim: Allocation,
    claim_end: float,
    now: float,
    depth: int,
    *,
    baseline: StaticPlan | None = None,
) -> list[Victim]:
    """Per-victim delays a grant of ``claim`` (held over ``[now,
    claim_end)``) would cause to the first ``depth``-StartLater prefix of
    the queue.

    ``profile`` is not mutated.  ``baseline`` may carry a pre-computed
    priority pass over the *unclaimed* profile (it must come from
    ``plan_static(ordered_jobs, profile.copy(), now, depth)`` on exactly
    these inputs); the scheduler passes the one its ``_delay_context``
    built for the request.  Jobs planned in the baseline but unschedulable under the
    hypothesis (cannot happen with finite claims, since every claim ends)
    would surface as missing keys and are ignored.
    """
    if not ordered_jobs:
        return []
    if baseline is None:
        baseline = plan_static(ordered_jobs, profile.copy(), now, depth)
    hypothetical_profile = profile.copy()
    if claim_end > now:
        hypothetical_profile.add_claim(now, claim_end, claim)
    hypothetical = plan_static(ordered_jobs, hypothetical_profile, now, depth)
    base_starts = baseline.starts_by_job()
    hyp_starts = hypothetical.starts_by_job()
    victims: list[Victim] = []
    for planned in baseline.start_now + baseline.start_later:
        job_id = planned.job.job_id
        if job_id not in hyp_starts:
            continue
        delay = max(0.0, hyp_starts[job_id] - base_starts[job_id])
        victims.append(
            Victim(
                job=planned.job,
                delay=delay,
                planned_start=base_starts[job_id],
                delayed_start=hyp_starts[job_id],
            )
        )
    return victims
