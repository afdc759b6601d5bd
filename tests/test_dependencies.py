"""Tests for job dependencies (after / afterok / afterany)."""

import pytest

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job, JobState
from repro.maui.config import MauiConfig
from repro.sim.events import EventKind
from repro.system import BatchSystem


def job(cores=8, walltime=100.0, user="u", **kw):
    return Job(request=ResourceRequest(cores=cores), walltime=walltime, user=user, **kw)


class TestValidation:
    def test_unknown_dependency_type_rejected(self):
        with pytest.raises(ValueError):
            job(depends_on="x", dependency_type="before")

    def test_default_type_afterok(self):
        assert job(depends_on="x").dependency_type == "afterok"


class TestAfterok:
    def test_waits_for_completion(self, system):
        first = system.submit(job(cores=4), FixedRuntimeApp(100.0))
        second = system.submit(
            job(cores=4, depends_on=first.job_id), FixedRuntimeApp(50.0)
        )
        system.run(until=50.0)
        # plenty of idle cores, but the dependency holds it back
        assert second.state is JobState.QUEUED
        system.run()
        assert second.start_time == pytest.approx(100.0)
        assert second.state is JobState.COMPLETED

    def test_cancelled_when_dependency_fails(self, system):
        class Crash:
            def launch(self, ctx):
                ctx.after(10.0, lambda: ctx._server.abort_job(ctx.job, "crash"))

        first = system.submit(job(cores=4), Crash())
        second = system.submit(
            job(cores=4, depends_on=first.job_id), FixedRuntimeApp(50.0)
        )
        system.run()
        assert first.state is JobState.ABORTED
        assert second.state is JobState.ABORTED
        assert second.start_time is None

    def test_queries_do_not_cancel(self, system):
        """``explain`` (like a delay measurement) only asks: the dependent
        of an aborted ``afterok`` target stays queued until a pass runs."""
        first = system.submit(job(cores=4), FixedRuntimeApp(100.0))
        system.run(until=5.0)
        system.server.abort_job(first, "crash")
        second = system.submit(
            job(cores=4, depends_on=first.job_id), FixedRuntimeApp(50.0)
        )
        aborts = system.trace.count(EventKind.JOB_ABORT)
        for _ in range(2):
            assert system.scheduler.explain(second)["blocked_by"] == (
                f"dependency on {first.job_id}"
            )
        assert second.state is JobState.QUEUED
        assert system.trace.count(EventKind.JOB_ABORT) == aborts
        system.run(until=5.0)
        assert second.state is JobState.ABORTED and second.end_time == 5.0
        assert system.trace.count(EventKind.JOB_ABORT) == aborts + 1

    def test_dangling_dependency_holds_job(self, system):
        orphan = system.submit(
            job(cores=4, depends_on="job.does-not-exist"), FixedRuntimeApp(50.0)
        )
        system.run()
        assert orphan.state is JobState.QUEUED


class TestAfter:
    def test_released_at_dependency_start(self, system):
        first = system.submit(job(cores=4, walltime=200.0), FixedRuntimeApp(200.0))
        second = system.submit(
            job(cores=4, depends_on=first.job_id, dependency_type="after"),
            FixedRuntimeApp(50.0),
        )
        system.run()
        # "after" releases as soon as the target starts, so both overlap
        assert second.start_time == pytest.approx(0.0)


class TestAfterany:
    def test_released_on_abort(self, system):
        class Crash:
            def launch(self, ctx):
                ctx.after(10.0, lambda: ctx._server.abort_job(ctx.job, "crash"))

        first = system.submit(job(cores=4), Crash())
        second = system.submit(
            job(cores=4, depends_on=first.job_id, dependency_type="afterany"),
            FixedRuntimeApp(50.0),
        )
        system.run()
        assert second.state is JobState.COMPLETED
        assert second.start_time == pytest.approx(10.0)


class TestChains:
    def test_three_stage_pipeline(self, system):
        a = system.submit(job(cores=8), FixedRuntimeApp(100.0))
        b = system.submit(job(cores=8, depends_on=a.job_id), FixedRuntimeApp(100.0))
        c = system.submit(job(cores=8, depends_on=b.job_id), FixedRuntimeApp(100.0))
        system.run()
        assert (a.start_time, b.start_time, c.start_time) == (0.0, 100.0, 200.0)

    def test_dependent_job_invisible_to_delay_planning(self, system):
        # a held-back dependent job must not appear as a fairness victim
        from repro.apps.synthetic import EvolvingWorkApp
        from repro.jobs.evolution import EvolutionProfile
        from repro.jobs.job import JobFlexibility
        from repro.maui.config import DFSConfig, DFSPolicy, PrincipalLimits

        config = MauiConfig(
            dfs=DFSConfig(
                policy=DFSPolicy.TARGET_DELAY,
                default_user=PrincipalLimits(target_delay_time=1.0),
            )
        )
        system = BatchSystem(2, 8, config)
        runner = system.submit(job(cores=8, walltime=300.0, user="r"), FixedRuntimeApp(300.0))
        evo = Job(
            request=ResourceRequest(cores=4),
            walltime=2000.0,
            user="evo",
            flexibility=JobFlexibility.EVOLVING,
            evolution=EvolutionProfile.single(0.16, ResourceRequest(cores=4)),
        )
        system.submit(evo, EvolvingWorkApp(1000.0))
        # this 12-core job would veto the grant — but it depends on the
        # runner and is therefore not yet eligible
        dependent = system.submit(
            job(cores=12, walltime=100.0, user="waiting", depends_on=runner.job_id),
            FixedRuntimeApp(100.0),
        )
        system.run(until=200.0)
        assert evo.dyn_granted == 1
