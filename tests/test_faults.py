"""Tests for the fault-injection subsystem (repro.faults) and the
hardened node-failure / grant-delivery paths in the server."""

import math
import random

import pytest

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.node import NodeState
from repro.faults import FaultInjector, FaultModel, generate_failure_trace
from repro.faults.trace import FAIL, RECOVER
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.maui.config import MauiConfig
from repro.rms.server import Server
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from repro.system import BatchSystem


def rigid(cores, walltime, user="u"):
    return Job(request=ResourceRequest(cores=cores), walltime=walltime, user=user)


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
class TestFaultModel:
    def test_disabled_by_default(self):
        model = FaultModel()
        assert not model.enabled
        assert not model.node_failures_enabled
        assert not model.transient_faults_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mtbf": 0.0},
            {"mtbf": -1.0},
            {"mttr": 0.0},
            {"distribution": "uniform"},
            {"weibull_shape": 0.0},
            {"burst_probability": 1.5},
            {"burst_size": 1},
            {"horizon": 0.0},
            {"grant_delivery_failure_rate": 1.0},
            {"grant_delivery_failure_rate": -0.1},
            {"delivery_max_retries": -1},
            {"delivery_retry_backoff": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)

    def test_frozen_and_hashable(self):
        model = FaultModel(seed=1, mtbf=100.0)
        assert hash(model) == hash(FaultModel(seed=1, mtbf=100.0))


# ----------------------------------------------------------------------
# the trace generator
# ----------------------------------------------------------------------
def assert_consistent(trace):
    """Per node: strictly alternating fail -> recover, ending recovered."""
    state = {}
    for ev in trace:
        if ev.kind == FAIL:
            assert state.get(ev.node, "up") == "up", f"double fail: {ev}"
            state[ev.node] = "down"
        else:
            assert state.get(ev.node) == "down", f"recover while up: {ev}"
            state[ev.node] = "up"
    assert all(s == "up" for s in state.values())


class TestTraceGenerator:
    MODEL = FaultModel(seed=11, mtbf=1500.0, mttr=200.0, horizon=10_000.0)

    def test_disabled_model_generates_nothing(self):
        assert generate_failure_trace(FaultModel(seed=1), range(8)) == []

    def test_deterministic(self):
        a = generate_failure_trace(self.MODEL, range(10))
        b = generate_failure_trace(self.MODEL, range(10))
        assert a == b
        different = FaultModel(seed=12, mtbf=1500.0, mttr=200.0, horizon=10_000.0)
        assert generate_failure_trace(different, range(10)) != a

    def test_sorted_and_consistent(self):
        trace = generate_failure_trace(self.MODEL, range(10))
        assert trace, "this model should produce failures"
        assert [(-1, e.time) for e in trace] == sorted(
            (-1, e.time) for e in trace
        )
        assert_consistent(trace)

    def test_every_failure_is_paired_within_horizon_for_fails(self):
        trace = generate_failure_trace(self.MODEL, range(10))
        fails = [e for e in trace if e.kind == FAIL]
        recovers = [e for e in trace if e.kind == RECOVER]
        assert len(fails) == len(recovers)
        assert all(e.time < self.MODEL.horizon for e in fails)
        # recoveries may exceed the horizon — that's the drain guarantee

    def test_per_node_independence(self):
        """Adding nodes never perturbs an existing node's failure history."""
        small = generate_failure_trace(self.MODEL, range(5))
        large = generate_failure_trace(self.MODEL, range(10))
        for node in range(5):
            assert [e for e in small if e.node == node] == [
                e for e in large if e.node == node
            ]

    def test_weibull_distribution(self):
        model = FaultModel(
            seed=5, mtbf=1500.0, mttr=200.0, distribution="weibull",
            weibull_shape=0.7, horizon=10_000.0,
        )
        trace = generate_failure_trace(model, range(10))
        assert trace
        assert_consistent(trace)

    def test_correlated_bursts(self):
        model = FaultModel(
            seed=11, mtbf=3000.0, mttr=200.0, burst_probability=1.0,
            burst_size=3, horizon=10_000.0,
        )
        trace = generate_failure_trace(model, range(10))
        assert_consistent(trace)
        by_time = {}
        for ev in trace:
            if ev.kind == FAIL:
                by_time.setdefault(ev.time, set()).add(ev.node)
        assert any(len(nodes) >= 2 for nodes in by_time.values()), (
            "p=1 bursts must produce simultaneous multi-node failures"
        )

    def test_bursts_only_add_intervals(self):
        base = FaultModel(seed=11, mtbf=3000.0, mttr=200.0, horizon=10_000.0)
        burst = FaultModel(
            seed=11, mtbf=3000.0, mttr=200.0, burst_probability=1.0,
            burst_size=2, horizon=10_000.0,
        )
        base_fails = {
            (e.time, e.node)
            for e in generate_failure_trace(base, range(6))
            if e.kind == FAIL
        }
        burst_fails = {
            (e.time, e.node)
            for e in generate_failure_trace(burst, range(6))
            if e.kind == FAIL
        }
        # every base failure still happens (possibly absorbed into a merged
        # longer interval that *starts* at the same instant or earlier)
        burst_down_starts = {t for t, _ in burst_fails}
        assert len(burst_fails) >= len(base_fails) or burst_down_starts


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
def normalize_job_ids(lines):
    """Job ids come from a process-global counter; rank them per run."""
    import re

    mapping = {}

    def sub(match):
        return mapping.setdefault(match.group(0), f"J{len(mapping)}")

    return [re.sub(r"job\.\d+", sub, line) for line in lines]


class TestFaultInjector:
    def test_drives_failures_and_recoveries(self):
        model = FaultModel(seed=3, mtbf=800.0, mttr=150.0, horizon=3000.0)
        system = BatchSystem(4, 8, MauiConfig(), fault_model=model)
        assert system.fault_injector is not None
        for i in range(6):
            system.submit(rigid(8, 400.0, f"u{i}"), FixedRuntimeApp(300.0))
        system.run(max_events=1_000_000)
        stats = system.fault_injector.stats
        assert stats["node_failures"] > 0
        assert stats["node_failures"] == stats["node_recoveries"]
        assert system.trace.count(EventKind.NODE_FAIL) == stats["node_failures"]
        assert system.trace.count(EventKind.NODE_RECOVER) == stats["node_recoveries"]
        assert stats["downtime_seconds"] > 0
        assert system.fault_injector.effective_mttr > 0
        # every node ended the run back UP
        assert all(n.state is NodeState.UP for n in system.cluster.nodes)
        report = system.fault_injector.report()
        assert report["delivery_drops"] == 0
        assert report["trace_events"] == len(system.fault_injector.trace)

    def test_lost_work_and_requeues_accounted(self):
        model = FaultModel(seed=3, mtbf=800.0, mttr=150.0, horizon=3000.0)
        system = BatchSystem(4, 8, MauiConfig(), fault_model=model)
        jobs = [
            system.submit(rigid(16, 2000.0, f"u{i}"), FixedRuntimeApp(1500.0))
            for i in range(3)
        ]
        system.run(max_events=1_000_000)
        stats = system.fault_injector.stats
        requeues = sum(j.metadata.get("node_failures", 0) for j in jobs)
        assert stats["jobs_requeued"] == requeues
        if requeues:
            assert stats["lost_core_seconds"] > 0

    def test_deterministic_end_to_end(self):
        model = FaultModel(
            seed=9, mtbf=600.0, mttr=100.0, horizon=2500.0,
            grant_delivery_failure_rate=0.2,
        )

        def run_once():
            system = BatchSystem(4, 8, MauiConfig(), fault_model=model)
            from repro.workloads.random_workload import make_random_workload

            make_random_workload(30, 32, evolving_share=0.5, seed=42).submit_to(
                system
            )
            system.run(max_events=1_000_000)
            report = system.fault_injector.report()
            report.pop("trace_events", None)
            return normalize_job_ids(repr(e) for e in system.trace), report

        assert run_once() == run_once()

    def test_disabled_model_is_bit_identical_to_no_injector(self):
        """The acceptance criterion: a zero-rate injector changes nothing."""
        from repro.workloads.random_workload import make_random_workload

        def run_once(fault_model):
            system = BatchSystem(4, 8, MauiConfig(), fault_model=fault_model)
            make_random_workload(30, 32, evolving_share=0.5, seed=42).submit_to(
                system
            )
            system.run(max_events=1_000_000)
            schedule = [
                (j.start_time, j.end_time)
                for j in sorted(system.server.jobs.values(), key=lambda j: j.seq)
            ]
            return normalize_job_ids(repr(e) for e in system.trace), schedule

        with_disabled = run_once(FaultModel(seed=123))
        without = run_once(None)
        assert with_disabled == without


# ----------------------------------------------------------------------
# transient grant-delivery faults (server hardening)
# ----------------------------------------------------------------------
class ScriptedFaults:
    """Deterministic TransientFaults stand-in: drop listed attempt numbers."""

    def __init__(self, drops, max_retries=3, backoff=5.0):
        self.drops = set(drops)
        self.max_retries = max_retries
        self.backoff = backoff
        self.stats = {
            "delivery_drops": 0,
            "delivery_retries": 0,
            "delivery_degraded": 0,
        }

    def drop_delivery(self, job_id, attempt):
        drop = attempt in self.drops
        if drop:
            self.stats["delivery_drops"] += 1
        return drop

    def retry_delay(self, attempt):
        return self.backoff * (2.0 ** (attempt - 1))

    def note_retry(self):
        self.stats["delivery_retries"] += 1

    def note_degraded(self):
        self.stats["delivery_degraded"] += 1


@pytest.fixture
def delivery_setup():
    """A running evolving job with a pending granted-but-undelivered dreq."""
    engine = Engine()
    cluster = Cluster.homogeneous(4, 8)
    server = Server(engine, cluster)
    job = Job(
        request=ResourceRequest(cores=8),
        walltime=10_000.0,
        flexibility=JobFlexibility.EVOLVING,
    )
    server.submit(job)

    captured = {}

    class Capture:
        def launch(self, ctx):
            captured["ctx"] = ctx

    server._apps[job.job_id] = Capture()
    server.start_job(job, Allocation({0: 4, 1: 4}))
    grants = []
    captured["ctx"].tm_dynget(ResourceRequest(cores=8), grants.append)
    return engine, cluster, server, job, grants


class TestGrantDeliveryFaults:
    def test_dropped_delivery_is_retried_and_succeeds(self, delivery_setup):
        engine, cluster, server, job, grants = delivery_setup
        faults = ScriptedFaults(drops={1})
        server.attach_faults(faults)
        server.grant_dynamic(server.dyn_queue[0], Allocation({2: 8}))
        # dropped: nothing delivered yet, retry pending
        assert grants == []
        assert cluster.used_cores == 8
        assert job.job_id in server._pending_deliveries
        engine.run(until=100.0)
        # retry at t+5 delivered the grant
        assert grants == [Allocation({2: 8})]
        assert job.allocation.total_cores == 16
        assert job.dyn_granted == 1
        assert server.trace.count(EventKind.GRANT_DELIVERY_FAIL) == 1
        assert server.trace.count(EventKind.DYN_GRANT) == 1
        assert faults.stats["delivery_retries"] == 1
        assert not server._pending_deliveries

    def test_exhausted_retries_degrade_gracefully(self, delivery_setup):
        engine, cluster, server, job, grants = delivery_setup
        faults = ScriptedFaults(drops={1, 2, 3}, max_retries=2)
        server.attach_faults(faults)
        server.grant_dynamic(server.dyn_queue[0], Allocation({2: 8}))
        engine.run(until=100.0)
        # attempts 1, 2, 3 all dropped; budget of 2 retries exhausted
        assert grants == [None]
        assert job.state is JobState.RUNNING
        assert job.allocation.total_cores == 8
        assert job.dyn_rejected == 1
        assert cluster.used_cores == 8
        rejects = server.trace.of_kind(EventKind.DYN_REJECT)
        assert "delivery failed" in rejects[0].payload["reason"]
        assert faults.stats["delivery_degraded"] == 1

    def test_node_failure_between_decision_and_delivery(self, delivery_setup):
        """The satellite regression: fail a node while its grant is in flight.

        The pending callback must not fire with a dead allocation — the
        request fails cleanly (rejection semantics) and the retry timer
        never delivers.
        """
        engine, cluster, server, job, grants = delivery_setup
        faults = ScriptedFaults(drops={1})
        server.attach_faults(faults)
        server.grant_dynamic(server.dyn_queue[0], Allocation({2: 8}))
        assert job.job_id in server._pending_deliveries
        # node 2 dies before the retry fires; the owning job (nodes 0, 1)
        # survives, but its granted allocation is on the dead node
        server.handle_node_failure(2)
        assert grants == [None]
        assert not server._pending_deliveries
        engine.run(until=100.0)
        # the cancelled retry never delivered anything
        assert grants == [None]
        assert job.state is JobState.RUNNING
        assert job.allocation == Allocation({0: 4, 1: 4})
        assert cluster.used_cores == 8
        rejects = server.trace.of_kind(EventKind.DYN_REJECT)
        assert "node 2 failed during delivery" in rejects[0].payload["reason"]

    def test_owner_requeued_between_decision_and_delivery(self, delivery_setup):
        """Failing the *owner's* node requeues it; the in-flight grant dies."""
        engine, cluster, server, job, grants = delivery_setup
        faults = ScriptedFaults(drops={1})
        server.attach_faults(faults)
        server.grant_dynamic(server.dyn_queue[0], Allocation({2: 8}))
        server.handle_node_failure(0)  # owner holds nodes 0 and 1
        assert job.state is JobState.QUEUED
        assert grants == [None]
        assert not server._pending_deliveries
        engine.run(until=100.0)
        assert grants == [None]  # the retry timer was cancelled
        assert cluster.used_cores == 0

    def test_stale_allocation_at_retry_counts_as_failed_attempt(
        self, delivery_setup
    ):
        engine, cluster, server, job, grants = delivery_setup
        faults = ScriptedFaults(drops={1}, max_retries=1)
        server.attach_faults(faults)
        server.grant_dynamic(server.dyn_queue[0], Allocation({2: 8}))
        # someone else takes the cores during the backoff window
        cluster.claim(Allocation({2: 8}))
        engine.run(until=100.0)
        # retry found the allocation stale; budget of 1 retry exhausted
        assert grants == [None]
        assert job.state is JobState.RUNNING
        assert job.allocation.total_cores == 8
        fails = server.trace.of_kind(EventKind.GRANT_DELIVERY_FAIL)
        assert len(fails) == 2
        assert "oversubscribed" in fails[1].payload["reason"]

    def test_teardown_cancels_pending_delivery(self, delivery_setup):
        engine, cluster, server, job, grants = delivery_setup
        faults = ScriptedFaults(drops={1})
        server.attach_faults(faults)
        server.grant_dynamic(server.dyn_queue[0], Allocation({2: 8}))
        server.complete_job(job)
        assert not server._pending_deliveries
        engine.run(until=100.0)
        # the job is gone; the retry must not have fired a grant at it
        assert grants == []
        assert server.trace.count(EventKind.DYN_GRANT) == 0
        assert cluster.used_cores == 0

    def test_without_faults_path_unchanged(self, delivery_setup):
        engine, cluster, server, job, grants = delivery_setup
        server.grant_dynamic(server.dyn_queue[0], Allocation({2: 8}))
        assert grants == [Allocation({2: 8})]
        assert server.trace.count(EventKind.GRANT_DELIVERY_FAIL) == 0


# ----------------------------------------------------------------------
# server idempotency (hardening satellites)
# ----------------------------------------------------------------------
class TestServerNodeEventIdempotency:
    def test_repeat_failure_is_silent_noop(self, system):
        system.submit(rigid(8, 1000), FixedRuntimeApp(300.0))
        system.run(until=10.0)
        system.server.handle_node_failure(0)
        version = system.server.state_version
        assert system.server.handle_node_failure(0) == []
        assert system.server.state_version == version
        assert system.trace.count(EventKind.NODE_FAIL) == 1

    def test_repeat_recovery_is_silent_noop(self, system):
        system.server.handle_node_failure(0)
        assert system.server.recover_node(0) is True
        version = system.server.state_version
        assert system.server.recover_node(0) is False
        assert system.server.state_version == version
        assert system.trace.count(EventKind.NODE_RECOVER) == 1

    def test_node_events_force_scheduler_replanning(self, system):
        scheduler = system.scheduler
        scheduler._next_reservation_start = 500.0
        system.server.handle_node_failure(0)
        assert scheduler._next_reservation_start is None
        assert scheduler._boundary_wake is None
        scheduler._next_reservation_start = 500.0
        system.server.recover_node(0)
        assert scheduler._next_reservation_start is None


# ----------------------------------------------------------------------
# ledger attribution of failure requeues
# ----------------------------------------------------------------------
class TestLedgerNodeFailureAttribution:
    def _run(self):
        from repro.obs import Telemetry

        telemetry = Telemetry(decision_ledger=True)
        system = BatchSystem(4, 8, MauiConfig(), telemetry=telemetry)
        victim = system.submit(rigid(32, 2000.0), FixedRuntimeApp(1500.0))
        system.run(until=200.0)
        assert victim.state is JobState.RUNNING
        failed = victim.allocation.node_indices[0]
        system.server.handle_node_failure(failed)
        system.engine.at(400.0, system.server.recover_node, failed)
        system.run()
        assert victim.state is JobState.COMPLETED
        return telemetry.ledger, victim, failed

    def test_requeue_wait_attributed_to_node_failure(self):
        ledger, victim, _ = self._run()
        attribution = ledger.attribution(victim.job_id)
        components = attribution["components"]
        assert components["node_failure_requeued"] == pytest.approx(200.0)
        assert "requeued" not in components
        # the reconciliation invariant still telescopes exactly
        assert attribution["wait"] == pytest.approx(victim.wait_time, abs=1e-9)

    def test_node_failure_requeue_decision_recorded(self):
        from repro.obs.ledger import DecisionKind

        ledger, victim, failed = self._run()
        decisions = ledger.of_kind(DecisionKind.NODE_FAILURE_REQUEUE)
        assert len(decisions) == 1
        assert decisions[0].job_id == victim.job_id
        assert decisions[0].payload["node"] == failed
        assert decisions[0].payload["lost_seconds"] == pytest.approx(200.0)

    def test_scheduler_preemption_keeps_generic_requeued_cause(self):
        from repro.obs import Telemetry

        telemetry = Telemetry(decision_ledger=True)
        sys2 = BatchSystem(4, 8, MauiConfig(), telemetry=telemetry)
        job = sys2.submit(rigid(8, 1000.0), FixedRuntimeApp(800.0))
        sys2.run(until=100.0)
        sys2.server.preempt_job(job)
        sys2.run()
        attribution = telemetry.ledger.attribution(job.job_id)
        components = attribution["components"]
        assert components["requeued"] == pytest.approx(100.0)
        assert "node_failure_requeued" not in components


# ----------------------------------------------------------------------
# ESP under churn (integration)
# ----------------------------------------------------------------------
class TestESPUnderInjection:
    def test_esp_drains_under_churn(self):
        from repro.metrics.validate import validate_trace
        from repro.workloads.esp import make_esp_workload

        model = FaultModel(
            seed=5, mtbf=4000.0, mttr=400.0, horizon=12_000.0,
            grant_delivery_failure_rate=0.1,
        )
        system = BatchSystem(
            15, 8,
            MauiConfig(reservation_depth=5, reservation_delay_depth=5),
            fault_model=model,
        )
        make_esp_workload(120, dynamic=True, seed=2014).submit_to(system)
        system.run(max_events=10_000_000)
        jobs = list(system.server.jobs.values())
        assert all(j.is_finished for j in jobs)
        assert validate_trace(system.trace, system.cluster) == []
        assert system.cluster.used_cores == 0
        assert system.fault_injector.stats["node_failures"] > 0

    @pytest.mark.slow
    def test_resilience_row_deterministic(self):
        from repro.experiments.configs import configuration
        from repro.experiments.resilience import resilience_row

        def row():
            return resilience_row(
                configuration("Dyn-HP"),
                seed=2014,
                fault_model=FaultModel(seed=7, mtbf=6000.0, mttr=900.0,
                                       grant_delivery_failure_rate=0.05),
            )

        assert row() == row()
