"""End-to-end integration tests with system-wide invariants.

Every scenario runs through the full stack and then asserts global
conservation properties: no core leaked, every node idle, every job
accounted for.
"""

import pytest

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.cluster.node import NodeState
from repro.jobs.job import JobState
from repro.maui.config import DFSConfig, DFSPolicy, MauiConfig, PrincipalLimits
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload
from repro.workloads.random_workload import make_random_workload


def assert_clean_shutdown(system: BatchSystem) -> None:
    """Global invariants after a fully-drained run."""
    assert system.cluster.used_cores == 0, "cores leaked"
    assert len(system.server.queue) == 0, "jobs stuck in queue"
    assert len(system.server.dyn_queue) == 0, "dynamic requests stuck"
    for node in system.cluster.nodes:
        if node.state is NodeState.UP:
            assert system.cluster.node_free[node.index] == node.cores, node.name
    for job in system.server.jobs.values():
        assert job.is_finished, f"{job.job_id} not finished: {job.state}"
        assert job.end_time is not None


class TestSmallMixes:
    def test_rigid_only_drains(self, system):
        from repro.jobs.job import Job

        for i in range(12):
            system.submit(
                Job(request=ResourceRequest(cores=4 + (i % 3) * 4), walltime=100.0, user=f"u{i%4}"),
                FixedRuntimeApp(100.0),
            )
        system.run(max_events=50_000)
        assert_clean_shutdown(system)
        assert all(j.state is JobState.COMPLETED for j in system.server.jobs.values())

    def test_mixed_evolving_drains(self, system):
        from repro.jobs.evolution import EvolutionProfile
        from repro.jobs.job import Job, JobFlexibility

        for i in range(6):
            system.submit(
                Job(request=ResourceRequest(cores=8), walltime=300.0, user=f"r{i}"),
                FixedRuntimeApp(300.0),
            )
        for i in range(4):
            system.submit(
                Job(
                    request=ResourceRequest(cores=4),
                    walltime=500.0,
                    user="evo",
                    flexibility=JobFlexibility.EVOLVING,
                    evolution=EvolutionProfile.esp_default(),
                ),
                EvolvingWorkApp(500.0),
            )
        system.run(max_events=50_000)
        assert_clean_shutdown(system)

    def test_random_workload_drains(self):
        system = BatchSystem(8, 8, MauiConfig(reservation_depth=3, reservation_delay_depth=3))
        wl = make_random_workload(60, 64, seed=11)
        wl.submit_to(system)
        system.run(max_events=200_000)
        assert_clean_shutdown(system)

    def test_random_workload_with_fairness_drains(self):
        config = MauiConfig(
            dfs=DFSConfig(
                policy=DFSPolicy.SINGLE_AND_TARGET_DELAY,
                default_user=PrincipalLimits(target_delay_time=300.0, single_delay_time=120.0),
            )
        )
        system = BatchSystem(8, 8, config)
        make_random_workload(50, 64, seed=3, evolving_share=0.5).submit_to(system)
        system.run(max_events=200_000)
        assert_clean_shutdown(system)

    def test_random_workload_with_preemption_drains(self):
        system = BatchSystem(8, 8, MauiConfig(preemption_for_dynamic=True))
        make_random_workload(50, 64, seed=9, evolving_share=0.4).submit_to(system)
        system.run(max_events=200_000)
        assert_clean_shutdown(system)


class TestEspEndToEnd:
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_esp_run_completes_all_jobs(self, paper_system, dynamic):
        wl = make_esp_workload(120, dynamic=dynamic, seed=2014)
        wl.submit_to(paper_system)
        paper_system.run(max_events=2_000_000)
        assert_clean_shutdown(paper_system)
        m = paper_system.metrics()
        assert m.completed_jobs == 230
        assert 0.5 < m.utilization <= 1.0

    def test_dynamic_beats_static(self):
        results = {}
        for dynamic in (False, True):
            system = BatchSystem(
                15, 8, MauiConfig(reservation_depth=5, reservation_delay_depth=5)
            )
            make_esp_workload(120, dynamic=dynamic, seed=2014).submit_to(system)
            system.run(max_events=2_000_000)
            results[dynamic] = system.metrics()
        # the headline claim: dynamic allocation improves the system metrics
        assert results[True].workload_time < results[False].workload_time
        assert results[True].utilization > results[False].utilization
        assert results[True].satisfied_dyn_jobs > 0

    def test_z_job_lockdown_in_esp(self, paper_system):
        wl = make_esp_workload(120, dynamic=True, seed=2014)
        wl.submit_to(paper_system)
        paper_system.run(max_events=2_000_000)
        jobs = list(paper_system.server.jobs.values())
        z_jobs = [j for j in jobs if j.esp_type == "Z"]
        assert len(z_jobs) == 2
        for z in z_jobs:
            assert z.state is JobState.COMPLETED
            assert z.allocation.total_cores == 120
        # the two Z jobs must not overlap (each needs the whole machine)
        first, second = sorted(z_jobs, key=lambda j: j.start_time)
        assert second.start_time >= first.end_time

    def test_determinism_same_seed_same_results(self):
        outcomes = []
        for _ in range(2):
            system = BatchSystem(
                15, 8, MauiConfig(reservation_depth=5, reservation_delay_depth=5)
            )
            make_esp_workload(120, dynamic=True, seed=99).submit_to(system)
            system.run(max_events=2_000_000)
            m = system.metrics()
            outcomes.append(
                (
                    m.workload_time,
                    m.satisfied_dyn_jobs,
                    tuple(r.wait_time for r in m.records),
                )
            )
        assert outcomes[0] == outcomes[1]


class TestFaultTolerance:
    def test_node_failure_requeues_via_abort_and_drains(self, system):
        from repro.jobs.job import Job

        job = Job(request=ResourceRequest(cores=8), walltime=500.0, user="a")
        system.submit(job, FixedRuntimeApp(500.0))
        system.run(until=100.0)
        # operator aborts the job on a failing node and drains the node
        failed_node = job.allocation.node_indices[0]
        system.server.abort_job(job, "node failure")
        system.cluster.fail_node(failed_node)
        # a new job still runs on the remaining nodes
        job2 = Job(request=ResourceRequest(cores=16), walltime=100.0, user="b")
        system.submit(job2, FixedRuntimeApp(100.0))
        system.run()
        assert job2.state is JobState.COMPLETED
        assert failed_node not in job2.allocation


class TestLongHorizonSoak:
    def test_week_long_diurnal_soak(self):
        """7 simulated days, ~1400 jobs, every extension enabled at once.

        The combined-features soak: fairness policies, preemption, malleable
        stealing, throttling, an admin maintenance window and a node failure
        all in one run — everything must drain and the trace must validate.
        """
        from repro.maui.config import DFSConfig, DFSPolicy, PrincipalLimits
        from repro.maui.reservations import AdminReservation
        from repro.metrics.validate import validate_trace
        from repro.workloads.random_workload import make_diurnal_workload

        config = MauiConfig(
            reservation_depth=3,
            reservation_delay_depth=5,
            preemption_for_dynamic=True,
            malleable_steal_for_dynamic=True,
            max_running_jobs_per_user=20,
            dynamic_request_order="fairshare",
            dfs=DFSConfig(
                policy=DFSPolicy.SINGLE_AND_TARGET_DELAY,
                interval=6 * 3600.0,
                decay=0.4,
                default_user=PrincipalLimits(
                    target_delay_time=1200.0, single_delay_time=600.0
                ),
            ),
            admin_reservations=(
                AdminReservation(
                    cores_by_node={0: 8, 1: 8},
                    start=2.5 * 86400.0,
                    end=2.6 * 86400.0,
                    name="weekly maintenance",
                ),
            ),
        )
        system = BatchSystem(10, 8, config)
        make_diurnal_workload(
            7, 80, jobs_per_day=200, evolving_share=0.3, seed=13
        ).submit_to(system)
        # a node dies on day 4 and comes back six hours later
        system.engine.at(4.0 * 86400.0, system.server.handle_node_failure, 5)
        system.engine.at(4.25 * 86400.0, system.server.recover_node, 5)
        system.run(max_events=3_000_000)

        assert_clean_shutdown(system)
        assert validate_trace(system.trace, system.cluster) == []
        m = system.metrics()
        assert m.completed_jobs == 1400
        assert m.satisfied_dyn_jobs > 0
        assert system.scheduler.dfs.intervals_rolled >= 7 * 4 - 1
