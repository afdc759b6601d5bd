"""Tests for the MauiScheduler: Algorithm 1/2 behaviour end to end.

These run through the full BatchSystem (engine + server + scheduler) on
small, hand-analysable scenarios.
"""

import pytest

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.cluster.machine import Cluster
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.maui.config import DFSConfig, DFSPolicy, MauiConfig, PrincipalLimits
from repro.sim.events import EventKind
from repro.system import BatchSystem


def rigid(cores, walltime, user="u", **kw):
    return Job(request=ResourceRequest(cores=cores), walltime=walltime, user=user, **kw)


def evolving(cores, walltime, user="evo", extra=4, at=0.16, retries=(0.25,)):
    return Job(
        request=ResourceRequest(cores=cores),
        walltime=walltime,
        user=user,
        flexibility=JobFlexibility.EVOLVING,
        evolution=EvolutionProfile.single(at, ResourceRequest(cores=extra), retries),
    )


class TestStaticScheduling:
    def test_fifo_start(self, system):
        a = system.submit(rigid(16, 100))
        b = system.submit(rigid(16, 100))
        system.run(until=0.0)
        assert a.state is JobState.RUNNING
        assert b.state is JobState.RUNNING

    def test_blocked_job_waits_for_release(self, system):
        a = system.submit(rigid(32, 100), FixedRuntimeApp(100))
        b = system.submit(rigid(32, 100), FixedRuntimeApp(100))
        system.run()
        assert a.start_time == 0.0
        assert b.start_time == 100.0

    def test_backfill_around_reservation(self, system):
        # a(16c,100s) runs; b(32c) reserves t=100; c(16c,50s) backfills now
        a = system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100))
        b = system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200))
        c = system.submit(rigid(16, 50, "c"), FixedRuntimeApp(50))
        system.run()
        assert a.start_time == 0.0
        assert c.start_time == 0.0
        assert c.backfilled
        assert b.start_time == 100.0

    def test_qdel_of_a_reserved_job_wakes_the_scheduler(self):
        # 1x8: a(4c) runs to t=1000 and b(8c) is reserved behind it, so
        # c(4c, 2000s) would run across b's window and waits.  With b gone
        # c fits beside a at once — not only when a completes.
        system = BatchSystem(1, 8)
        a = system.submit(rigid(4, 1000, "a"), FixedRuntimeApp(1000))
        b = system.submit(rigid(8, 100, "b"), FixedRuntimeApp(100))
        c = system.submit(rigid(4, 2000, "c"), FixedRuntimeApp(2000))
        system.run(until=10.0)
        assert a.state is JobState.RUNNING and c.state is JobState.QUEUED
        system.server.cancel_queued(b)
        system.run()
        assert c.start_time == 10.0

    def test_backfill_disabled(self):
        system = BatchSystem(4, 8, MauiConfig(backfill_enabled=False))
        a = system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100))
        b = system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200))
        c = system.submit(rigid(16, 50, "c"), FixedRuntimeApp(50))
        system.run()
        # strict priority order: c runs only after b, despite the idle gap
        # beside a in [0, 100) that backfill would have used
        assert c.start_time == 300.0

    def test_iteration_trace_recorded(self, system):
        system.submit(rigid(8, 10), FixedRuntimeApp(10))
        system.run()
        assert system.trace.count(EventKind.SCHED_ITERATION) >= 1

    def test_reservation_trace_recorded(self, system):
        system.submit(rigid(32, 100), FixedRuntimeApp(100))
        system.submit(rigid(32, 100), FixedRuntimeApp(100))
        system.run(until=0.0)
        assert system.trace.count(EventKind.RESERVATION_CREATE) >= 1


class TestZLockdown:
    def test_z_job_blocks_lower_priority_starts(self, system):
        running = system.submit(rigid(16, 100, "r"), FixedRuntimeApp(100))
        system.run(until=0.0)
        z = system.submit(rigid(32, 50, "z", top_priority=True), FixedRuntimeApp(50))
        small = system.submit(rigid(4, 10, "s"), FixedRuntimeApp(10))
        system.run(until=50.0)
        # while Z waits for the machine to drain, nothing else may start
        assert small.start_time is None or small.start_time >= 100.0
        system.run()
        assert z.start_time == 100.0
        assert small.start_time == 150.0  # after Z completes

    def test_z_job_starts_immediately_on_idle_machine(self, system):
        z = system.submit(rigid(32, 50, "z", top_priority=True), FixedRuntimeApp(50))
        system.run()
        assert z.start_time == 0.0
        assert z.state is JobState.COMPLETED


class TestDynamicRequests:
    def test_grant_from_idle(self, system):
        job = system.submit(evolving(4, 1000), EvolvingWorkApp(1000))
        system.run()
        assert job.dyn_granted == 1
        assert job.state is JobState.COMPLETED
        # expansion at 16%: 160 + 840 * 4/8 = 580
        assert job.end_time == pytest.approx(580.0)

    def test_reject_when_no_idle(self):
        system = BatchSystem(1, 8, MauiConfig())
        evo = system.submit(evolving(4, 1000), EvolvingWorkApp(1000))
        blocker = system.submit(rigid(4, 2000, "b"), FixedRuntimeApp(2000))
        system.run(until=500.0)
        assert evo.dyn_granted == 0
        assert evo.dyn_rejected == 2  # 16% attempt and 25% retry both fail

    def test_static_config_rejects_everything(self):
        system = BatchSystem(4, 8, MauiConfig(dynamic_enabled=False))
        job = system.submit(evolving(4, 1000), EvolvingWorkApp(1000))
        system.run()
        assert job.dyn_granted == 0
        assert job.dyn_rejected == 2
        assert job.end_time == pytest.approx(1000.0)  # full static runtime

    def test_retry_succeeds_after_release(self):
        system = BatchSystem(1, 8, MauiConfig())
        evo = system.submit(evolving(4, 2000), EvolvingWorkApp(2000))
        # blocker occupies the other 4 cores past the 16% point (t=320)
        # but releases before the 25% retry (t=500)
        blocker = system.submit(rigid(4, 400, "b"), FixedRuntimeApp(400))
        system.run()
        assert evo.dyn_rejected == 1
        assert evo.dyn_granted == 1

    def test_fifo_order_of_dynamic_requests(self, system):
        # two evolving jobs request simultaneously; only 4 idle cores remain
        evo1 = system.submit(evolving(12, 1000, "e1"), EvolvingWorkApp(1000))
        evo2 = system.submit(evolving(12, 1000, "e2"), EvolvingWorkApp(1000))
        filler = system.submit(rigid(4, 1000, "f"), FixedRuntimeApp(1000))
        system.run(until=200.0)
        # both requested at t=160 (same fraction, same SET); FIFO favours
        # the first submitter
        assert evo1.dyn_granted == 1
        assert evo2.dyn_granted == 0

    def _veto_scenario(self, evo_user: str, queued_user: str) -> BatchSystem:
        """Evolving job (4c, walltime 2000, SET 1000) + a 300s rigid runner.

        The queued 12-core job could start at t=300 when the runner ends;
        granting the evolving job 4 extra cores until its walltime end
        (t=2000) pushes that start to t=2000 — a 1700s delay against a 1s cap.
        """
        config = MauiConfig(
            dfs=DFSConfig(
                policy=DFSPolicy.TARGET_DELAY,
                default_user=PrincipalLimits(target_delay_time=1.0),
            )
        )
        system = BatchSystem(2, 8, config)
        evo = Job(
            request=ResourceRequest(cores=4),
            walltime=2000.0,
            user=evo_user,
            flexibility=JobFlexibility.EVOLVING,
            evolution=EvolutionProfile.single(0.16, ResourceRequest(cores=4)),
        )
        system.submit(evo, EvolvingWorkApp(1000))
        system.submit(rigid(8, 300, "runner"), FixedRuntimeApp(300))
        system.submit(rigid(12, 100, queued_user), FixedRuntimeApp(100))
        system.run(until=250.0)
        return system, evo

    def test_fairness_veto_path(self):
        system, evo = self._veto_scenario("evo", "waiting")
        assert evo.dyn_granted == 0
        assert system.scheduler.stats["dyn_rejected_fairness"] >= 1

    def test_same_user_delay_is_exempt(self):
        system, evo = self._veto_scenario("same", "same")
        assert evo.dyn_granted == 1

    def test_grant_trace_has_nodes(self, system):
        system.submit(evolving(4, 1000), EvolvingWorkApp(1000))
        system.run()
        grant = system.trace.of_kind(EventKind.DYN_GRANT)[0]
        assert grant.payload["cores"] == 4
        assert grant.payload["nodes"]


class TestDynamicPartition:
    def _system(self):
        cluster = Cluster.homogeneous(4, 8, dynamic_partition_nodes=1)
        return BatchSystem(config=MauiConfig(use_dynamic_partition=True), cluster=cluster)

    def test_static_jobs_avoid_dynamic_partition(self):
        system = self._system()
        job = system.submit(rigid(24, 100), FixedRuntimeApp(100))
        system.run(until=0.0)
        assert job.state is JobState.RUNNING
        assert 3 not in job.allocation  # node 3 is fenced

    def test_static_job_larger_than_batch_partition_never_starts(self):
        system = self._system()
        job = system.submit(rigid(32, 100), FixedRuntimeApp(100))
        system.run(until=100.0)
        assert job.state is JobState.QUEUED

    def test_dynamic_request_served_from_partition_first(self):
        system = self._system()
        evo = system.submit(evolving(4, 1000), EvolvingWorkApp(1000))
        system.run(until=200.0)
        grant = system.trace.of_kind(EventKind.DYN_GRANT)[0]
        assert grant.payload["nodes"] == [3]

    def test_partition_overflow_falls_back_to_batch_idle(self):
        system = self._system()
        evo = system.submit(
            Job(
                request=ResourceRequest(cores=4),
                walltime=1000.0,
                user="evo",
                flexibility=JobFlexibility.EVOLVING,
                evolution=EvolutionProfile.single(0.16, ResourceRequest(cores=12)),
            ),
            EvolvingWorkApp(1000),
        )
        system.run(until=200.0)
        grant = system.trace.of_kind(EventKind.DYN_GRANT)[0]
        assert set(grant.payload["nodes"]) - {3}  # spills into batch nodes


class TestPreemptionForDynamic:
    def test_backfilled_job_preempted_for_dynamic_request(self):
        config = MauiConfig(preemption_for_dynamic=True)
        system = BatchSystem(2, 8, config)
        evo = system.submit(evolving(8, 1000, "evo"), EvolvingWorkApp(1000))
        # head-of-queue blocker that cannot start (needs 16 cores); its
        # reservation begins at t=1000 when the evolving job's walltime ends
        blocker = system.submit(rigid(16, 500, "big"), FixedRuntimeApp(500))
        # small job backfills into the remaining 8 cores (ends before t=1000)
        small = system.submit(rigid(8, 800, "small"), FixedRuntimeApp(800))
        system.run(until=0.0)
        assert small.backfilled and small.state is JobState.RUNNING
        system.run(until=200.0)
        # at t=160 the evolving job asks for 4 cores; none idle -> preempt
        assert evo.dyn_granted == 1
        assert small.metadata.get("preempt_count", 0) == 1
        assert system.scheduler.stats["preemptions"] == 1
        assert system.trace.count(EventKind.PREEMPT) == 1

    def test_no_preemption_when_disabled(self):
        system = BatchSystem(2, 8, MauiConfig())
        evo = system.submit(evolving(8, 1000, "evo"), EvolvingWorkApp(1000))
        blocker = system.submit(rigid(16, 500, "big"), FixedRuntimeApp(500))
        small = system.submit(rigid(8, 800, "small"), FixedRuntimeApp(800))
        system.run(until=200.0)
        assert evo.dyn_granted == 0
        assert system.scheduler.stats["preemptions"] == 0

    def test_evolving_jobs_never_preempted(self):
        config = MauiConfig(preemption_for_dynamic=True)
        system = BatchSystem(1, 8, config)
        evo_a = system.submit(evolving(4, 1000, "a"), EvolvingWorkApp(1000))
        evo_b = system.submit(evolving(4, 1000, "b"), EvolvingWorkApp(1000))
        system.run(until=300.0)
        # neither evolving job may be sacrificed for the other's request
        assert evo_a.metadata.get("preempt_count", 0) == 0
        assert evo_b.metadata.get("preempt_count", 0) == 0


class TestSchedulerStats:
    def test_counters_consistent(self, system):
        for _ in range(3):
            system.submit(rigid(8, 50), FixedRuntimeApp(50))
        system.submit(evolving(4, 500), EvolvingWorkApp(500))
        system.run()
        stats = system.scheduler.stats
        assert stats["jobs_started"] + stats["jobs_backfilled"] == 4
        assert stats["dyn_granted"] == 1

    def test_timer_interval_triggers_iterations(self):
        system = BatchSystem(2, 8, MauiConfig(timer_interval=10.0))
        system.submit(rigid(8, 25), FixedRuntimeApp(25))
        system.run(until=100.0)
        stats = system.scheduler.stats
        # periodic wakeups continue after the workload drains; quiescent
        # ticks are counted as skips instead of running a full pass
        assert stats["iterations"] + stats["iterations_skipped"] >= 10
        assert stats["iterations_skipped"] > 0

    def test_timer_ticks_run_full_iterations_with_skip_disabled(self):
        system = BatchSystem(2, 8, MauiConfig(timer_interval=10.0))
        system.scheduler.iteration_skip_enabled = False
        system.submit(rigid(8, 25), FixedRuntimeApp(25))
        system.run(until=100.0)
        assert system.scheduler.stats["iterations"] >= 10
        assert system.scheduler.stats["iterations_skipped"] == 0


class TestIterationSkip:
    """Event-driven activation: quiescent wake-ups skip, forced wakes run."""

    def test_maintenance_edges_force_full_iterations(self):
        from repro.maui.reservations import AdminReservation

        window = AdminReservation(cores_by_node={0: 8}, start=50.0, end=60.0)
        system = BatchSystem(2, 8, MauiConfig(admin_reservations=(window,)))
        system.run(until=100.0)
        # both window edges are time-only triggers: they must run a full
        # pass even though no job or cluster state ever changed
        assert system.scheduler.stats["iterations"] >= 2
        assert system.scheduler.stats["iterations_skipped"] == 0

    def test_free_space_start_queues_no_echo(self):
        # R4 + R6: the arrival's pass starts the job into free space from
        # the shard's free cores (no profile built), keeps every plan, and
        # so proves its own echo a replay — nothing is queued behind it
        system = BatchSystem(2, 8, MauiConfig())
        scheduler = system.scheduler
        system.submit(rigid(4, 50), FixedRuntimeApp(50))
        system.engine.run(until=1.0)
        stats = scheduler.stats
        assert stats["jobs_started"] == 1
        assert stats["iterations"] == 1
        assert stats["iterations_skipped"] == 0
        assert not scheduler._wake_pending
        assert stats["profile_builds"] + stats["profile_advances"] == 0
        # the fingerprint is the post-pass one: a wake with no change skips
        scheduler.request_iteration()
        system.engine.run(until=2.0)
        assert (stats["iterations"], stats["iterations_skipped"]) == (1, 1)

    @pytest.mark.parametrize(
        "backfill_walltime, passes", [(500.0, 1), (2000.0, 2)],
        ids=["hole-sized", "overlapping"],
    )
    def test_backfill_that_drops_its_plan_still_echoes(
        self, backfill_walltime, passes
    ):
        # 2x4: 6 cores busy until t=1000, so `a` (4 cores) is reserved at
        # t=1000 and `h` (2 cores) backfills now.  Ending inside the hole
        # it keeps the plan and the echo is a proven replay; reaching into
        # a's window it drops the plan, and the echo must run a full pass
        # (the reservation is planned again on the cluster as it now is)
        system = BatchSystem(2, 4, MauiConfig())
        stats = system.scheduler.stats
        system.submit(rigid(6, 1000), FixedRuntimeApp(1000))
        a, h = rigid(4, 100), rigid(2, backfill_walltime)
        system.submit_at(10.0, a, FixedRuntimeApp(100))
        system.submit_at(10.0, h, FixedRuntimeApp(backfill_walltime))
        system.engine.run(until=5.0)
        before = dict(stats)
        system.engine.run(until=11.0)
        assert h.start_time == 10.0 and h.backfilled and a.start_time is None
        assert stats["iterations"] - before["iterations"] == passes
        assert (
            stats["reservations_created"] - before["reservations_created"] == passes
        )
        assert stats["iterations_skipped"] == 0

    def test_skip_on_and_off_schedules_are_identical(self, tmp_path):
        import json

        from repro.obs import Telemetry
        from repro.obs.exporters import event_to_dict
        from repro.workloads.random_workload import make_random_workload
        from tests.conftest import reset_job_ids

        def run(skip_enabled):
            reset_job_ids()
            telemetry = Telemetry(sample_interval=None, decision_ledger=True)
            system = BatchSystem(
                4, 8, MauiConfig(timer_interval=15.0), telemetry=telemetry
            )
            system.scheduler.iteration_skip_enabled = skip_enabled
            make_random_workload(
                40, 32, evolving_share=0.4, mean_interarrival=30.0,
                size_range=(1, 16), seed=7,
            ).submit_to(system)
            # the periodic timer reschedules forever: bound by sim time
            system.run(until=100_000.0, max_events=1_000_000)
            assert not system.server.queue and not system.server.active_count
            timeline = [
                (j.start_time, j.end_time)
                for j in sorted(system.server.jobs.values(), key=lambda j: j.seq)
            ]
            assert system.trace.dropped == 0
            trace = [json.dumps(event_to_dict(event)) for event in system.trace]
            ledger = tmp_path / f"skip-{skip_enabled}.jsonl"
            telemetry.ledger.export_jsonl(ledger)
            return timeline, system.scheduler.stats, trace, ledger.read_bytes()

        def decisions(trace):
            return [line for line in trace if '"kind": "sched_iteration"' not in line]

        timeline_on, stats_on, trace_on, ledger_on = run(True)
        timeline_off, stats_off, trace_off, ledger_off = run(False)
        assert timeline_on == timeline_off
        assert ledger_on == ledger_off
        # the skips drop passes that decide nothing: the trace loses
        # sched_iteration records and nothing else moves
        assert decisions(trace_on) == decisions(trace_off)
        remaining = iter(trace_off)
        assert all(line in remaining for line in trace_on)
        assert stats_on["dyn_granted"] == stats_off["dyn_granted"]
        assert stats_on["dyn_rejected"] == stats_off["dyn_rejected"]
        assert stats_on["jobs_started"] == stats_off["jobs_started"]
        assert stats_on["jobs_backfilled"] == stats_off["jobs_backfilled"]
        assert stats_on["iterations_skipped"] > 0
        assert stats_off["iterations_skipped"] == 0
        # a proven echo is never queued, so it is counted neither as an
        # iteration nor as a skip: only the pass count is comparable
        assert stats_on["iterations"] < stats_off["iterations"]
        assert stats_on["iterations"] == len(trace_on) - len(decisions(trace_on))

    def test_skip_counter_mirrored_into_registry(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        system = BatchSystem(
            2, 8, MauiConfig(timer_interval=10.0), telemetry=telemetry
        )
        system.submit(rigid(8, 25), FixedRuntimeApp(25))
        system.run(until=100.0)
        skipped = system.scheduler.stats["iterations_skipped"]
        assert skipped > 0
        assert (
            telemetry.registry.value("repro_sched_iterations_skipped_total")
            == skipped
        )
