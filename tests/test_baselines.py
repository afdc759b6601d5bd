"""Tests for the SLURM-style and guaranteeing baselines."""

import pytest

from repro.baselines.guaranteeing import (
    make_guaranteeing_esp_workload,
    run_guaranteeing_esp,
)
from repro.baselines.slurm_style import SlurmEvolvingApp, make_slurm_esp_workload, run_slurm_esp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job, JobState
from repro.maui.config import MauiConfig
from repro.system import BatchSystem
from repro.workloads.esp import ESP_JOB_TYPES, esp_core_count, make_esp_workload


class TestSlurmEvolvingApp:
    def test_expansion_via_helper_job(self):
        system = BatchSystem(2, 8, MauiConfig())
        app = SlurmEvolvingApp(system, static_runtime=1000.0, extra_cores=4)
        job = Job(request=ResourceRequest(cores=4), walltime=1000.0, user="evo")
        system.submit(job, app)
        system.run()
        # idle machine: the helper starts immediately at the trigger point,
        # so the outcome matches the native tm_dynget path
        assert job.dyn_granted == 1
        assert job.state is JobState.COMPLETED
        assert job.end_time == pytest.approx(0.16 * 1000 + 0.84 * 1000 * 0.5)

    def test_helper_waits_in_static_queue(self):
        system = BatchSystem(1, 8, MauiConfig())
        app = SlurmEvolvingApp(system, static_runtime=1000.0, extra_cores=4)
        evo = Job(request=ResourceRequest(cores=4), walltime=1000.0, user="evo")
        system.submit(evo, app)
        blocker = Job(request=ResourceRequest(cores=4), walltime=600.0, user="b")
        from repro.apps.synthetic import FixedRuntimeApp

        system.submit(blocker, FixedRuntimeApp(600.0))
        system.run()
        # the helper only starts once the blocker ends at t=600
        assert evo.dyn_granted == 1
        grant_time = 600.0
        expected = grant_time + (1000.0 - grant_time) * 0.5
        assert evo.end_time == pytest.approx(expected)

    def test_helper_cancelled_when_parent_finishes_first(self):
        system = BatchSystem(1, 8, MauiConfig())
        app = SlurmEvolvingApp(system, static_runtime=500.0, extra_cores=4)
        evo = Job(request=ResourceRequest(cores=4), walltime=500.0, user="evo")
        system.submit(evo, app)
        from repro.apps.synthetic import FixedRuntimeApp

        blocker = Job(request=ResourceRequest(cores=4), walltime=2000.0, user="b")
        system.submit(blocker, FixedRuntimeApp(2000.0))
        system.run(until=600.0)
        assert evo.state is JobState.COMPLETED
        assert evo.end_time == pytest.approx(500.0)
        assert app.stub is not None
        assert app.stub.state is JobState.ABORTED  # qdel'd, never ran

    def test_helper_jobs_carry_marker(self):
        system = BatchSystem(2, 8, MauiConfig())
        app = SlurmEvolvingApp(system, static_runtime=1000.0)
        evo = Job(request=ResourceRequest(cores=4), walltime=1000.0, user="evo")
        system.submit(evo, app)
        system.run()
        assert app.stub.metadata["expansion_for"] == evo.job_id


class TestSlurmWorkload:
    def test_workload_shape(self):
        system = BatchSystem(15, 8, MauiConfig())
        wl = make_slurm_esp_workload(system)
        assert wl.total_jobs == 230
        evolving = [s for s in wl if s.evolving]
        assert len(evolving) == 69

    def test_full_run_metrics_exclude_helpers(self):
        metrics = run_slurm_esp(seed=2014)
        assert len(metrics.records) == 230
        assert metrics.completed_jobs == 230
        # the paper's criticism: far fewer expansions arrive on time than
        # with the native dynamic path
        assert 0 <= metrics.satisfied_dyn_jobs < 43


class TestGuaranteeing:
    def test_workload_inflates_evolving_requests(self):
        wl = make_guaranteeing_esp_workload(120, seed=2014)
        by_type = {t.letter: t for t in ESP_JOB_TYPES}
        for spec in wl:
            base = esp_core_count(by_type[spec.esp_type].fraction, 120)
            if by_type[spec.esp_type].is_evolving:
                assert spec.request.cores == base + 4
            else:
                assert spec.request.cores == base

    def test_same_order_as_native_workload(self):
        from repro.workloads.esp import make_esp_workload

        native = [s.esp_type for s in make_esp_workload(120, seed=5)]
        guaranteed = [s.esp_type for s in make_guaranteeing_esp_workload(120, seed=5)]
        assert native == guaranteed

    def test_run_reports_waste(self):
        result = run_guaranteeing_esp(seed=2014)
        assert result.metrics.completed_jobs == 230
        # 69 evolving jobs x 4 cores x 16% of their SET
        expected_waste = sum(
            4 * 0.16 * t.static_execution_time * t.count
            for t in ESP_JOB_TYPES
            if t.is_evolving
        )
        assert result.wasted_reserved_core_seconds == pytest.approx(expected_waste)

    def test_guaranteeing_waits_worse_than_dynamic(self):
        from repro.experiments.runner import run_esp_configuration_cached

        guaranteed = run_guaranteeing_esp(seed=2014)
        dyn_hp = run_esp_configuration_cached("Dyn-HP", seed=2014)
        # Section II-B: preallocation hurts rigid-dominated workloads
        assert guaranteed.metrics.mean_wait > dyn_hp.metrics.mean_wait


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_esp_workload(walltime_factor=0.5),
        lambda: make_guaranteeing_esp_workload(walltime_factor=0.5),
        lambda: make_slurm_esp_workload(BatchSystem(15, 8), walltime_factor=0.5),
    ],
    ids=["esp", "guaranteeing", "slurm"],
)
def test_every_esp_variant_checks_the_walltime(build):
    """A walltime below the SET would kill each job before it finishes;
    the native builder and both baselines refuse it alike."""
    with pytest.raises(ValueError, match="walltime must cover the static execution time"):
        build()
