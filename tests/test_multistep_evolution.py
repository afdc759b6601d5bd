"""Tests for multi-step evolution profiles (sequential growth phases).

The paper's ESP jobs grow once; the protocol itself serialises any number
of steps through the mother superior (one pending request at a time).
"""

import pytest

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import EvolutionProfile, EvolutionStep
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.maui.config import MauiConfig
from repro.system import BatchSystem


def two_step_job(walltime=2000.0):
    return Job(
        request=ResourceRequest(cores=4),
        walltime=walltime,
        user="grower",
        flexibility=JobFlexibility.EVOLVING,
        evolution=EvolutionProfile(
            steps=(
                EvolutionStep(0.2, ResourceRequest(cores=4)),
                EvolutionStep(0.6, ResourceRequest(cores=8)),
            )
        ),
    )


class TestTwoStepGrowth:
    def test_both_steps_granted(self, system):
        job = two_step_job()
        system.submit(job, EvolvingWorkApp(1000.0))
        system.run()
        assert job.dyn_granted == 2
        assert job.state is JobState.COMPLETED
        # 4 cores to 20% (200s), 8 cores for work 0.2W..0.6W (400s work at
        # speed 2 = 200s), 16 cores for the last 0.4W (400s at speed 4 = 100s)
        assert job.end_time == pytest.approx(200.0 + 200.0 + 100.0)

    def test_second_step_skipped_if_first_rejected(self):
        system = BatchSystem(1, 8, MauiConfig())
        job = two_step_job()
        system.submit(job, EvolvingWorkApp(1000.0))
        blocker = Job(request=ResourceRequest(cores=4), walltime=260.0, user="b")
        system.submit(blocker, FixedRuntimeApp(260.0))
        system.run()
        # step 1 (t=200, no retries) rejected; step 2 at work fraction 0.6
        # (t=600 at base speed): blocker gone, 4 idle cores < 8 wanted? no:
        # 4 cores free, request is 8 -> rejected too
        assert job.dyn_granted == 0
        assert job.dyn_rejected == 2
        assert job.end_time == pytest.approx(1000.0)

    def test_partial_growth(self):
        # first step granted, second rejected: finishes between the extremes
        system = BatchSystem(1, 8, MauiConfig())
        job = two_step_job()
        system.submit(job, EvolvingWorkApp(1000.0))
        system.run()
        # step 1 (+4) granted at 200s; step 2 (+8) never fits an 8-core box
        assert job.dyn_granted == 1
        assert job.dyn_rejected == 1
        # 200s at speed 1, then 800s of work at speed 2
        assert job.end_time == pytest.approx(200.0 + 400.0)

    def test_mom_view_tracks_both_expansions(self, system):
        job = two_step_job()
        system.submit(job, EvolvingWorkApp(1000.0))
        # the job completes exactly at t=500; probe just before
        system.run(until=450.0)
        assert job.allocation.total_cores == 16
        assert system.cluster.used_cores == 16

    def test_three_steps_with_retries(self, system):
        job = Job(
            request=ResourceRequest(cores=2),
            walltime=4000.0,
            user="g",
            flexibility=JobFlexibility.EVOLVING,
            evolution=EvolutionProfile(
                steps=(
                    EvolutionStep(0.1, ResourceRequest(cores=2), (0.15,)),
                    EvolutionStep(0.4, ResourceRequest(cores=2), (0.45,)),
                    EvolutionStep(0.7, ResourceRequest(cores=2)),
                )
            ),
        )
        system.submit(job, EvolvingWorkApp(1000.0))
        system.run()
        assert job.dyn_granted == 3
        assert job.allocation.total_cores == 8
        assert job.state is JobState.COMPLETED
