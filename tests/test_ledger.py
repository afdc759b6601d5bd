"""Tests for the causal decision ledger and the delay-attribution engine.

Covers the PR contract end to end: off by default with a bit-identical
schedule, structured decisions for every verdict kind, throttle-transition
dedup, preemption and hold handling, JSONL export, a trace left as the
bare run writes it, registry counters read at collect time — and the acceptance invariant on a full seeded ESP
run: every finished rigid job's attribution components sum *exactly* to
its measured wait, with the per-grant ``dyn_inflicted`` totals reconciling
against the grant-time ``measure_delays`` results.
"""

import json
import re

import pytest

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.experiments.configs import dynamic_target_config
from repro.jobs.evolution import EvolutionProfile
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.maui.config import MauiConfig
from repro.obs import DecisionKind, DecisionLedger, Telemetry
from repro.obs.ledger import ATTRIBUTION_EPSILON
from repro.sim.events import EventKind
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload


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


def ledger_system(config=None, num_nodes=4, cores_per_node=8):
    telemetry = Telemetry(decision_ledger=True)
    system = BatchSystem(
        num_nodes, cores_per_node, config or MauiConfig(), telemetry=telemetry
    )
    return system, telemetry.ledger


class TestOffByDefault:
    def test_plain_telemetry_has_no_ledger(self):
        assert Telemetry().ledger is None

    def test_uninstrumented_system_has_no_ledger_hooks(self, system):
        assert system.scheduler._ledger is None
        system.submit(rigid(8, 50), FixedRuntimeApp(50))
        system.run()
        assert system.scheduler._ledger is None
        assert system.trace.subscribers == ()

    def test_disabled_run_schedule_identical_to_ledger_run(self):
        """The ledger observes; it must never steer the schedule."""

        def starts(with_ledger):
            if with_ledger:
                system, _ = ledger_system()
            else:
                system = BatchSystem(4, 8, MauiConfig())
            jobs = [
                system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100)),
                system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200)),
                system.submit(rigid(16, 50, "c"), FixedRuntimeApp(50)),
                system.submit(evolving(8, 500, "e"), EvolvingWorkApp(500)),
            ]
            system.run()
            return [(j.start_time, j.end_time, j.backfilled) for j in jobs]

        assert starts(False) == starts(True)

    def test_observable_trace_identical_modulo_decisions(self):
        """Ledger-on leaves the trace as the bare run writes it: there is
        no decision mirror left to set aside."""

        def run(with_ledger):
            if with_ledger:
                system, _ = ledger_system()
            else:
                system = BatchSystem(4, 8, MauiConfig())
            system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100))
            system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200))
            system.submit(evolving(8, 500, "e"), EvolvingWorkApp(500))
            system.run()
            return [(e.time, e.kind.value, sorted(e.payload)) for e in system.trace]

        assert run(False) == run(True)


class TestDecisionRecording:
    def test_static_start_payload(self):
        system, ledger = ledger_system()
        j = system.submit(rigid(8, 50, "alice"), FixedRuntimeApp(50))
        system.run()
        (start,) = ledger.of_kind(DecisionKind.STATIC_START)
        assert start.job_id == j.job_id
        assert start.payload["user"] == "alice"
        assert start.payload["cores"] == 8
        assert start.payload["wait"] == 0.0
        assert len(start.payload["profile_fingerprint"]) == 3

    def test_backfill_start_names_the_hole(self):
        system, ledger = ledger_system()
        a = system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100))
        b = system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200))
        c = system.submit(rigid(16, 50, "c"), FixedRuntimeApp(50))
        system.run()
        (bf,) = ledger.of_kind(DecisionKind.BACKFILL_START)
        assert bf.job_id == c.job_id
        assert bf.payload["jumped"] == [b.job_id]
        # the hole closes when b's reservation begins (t=100)
        assert bf.payload["hole_until"] == pytest.approx(100.0)

    def test_reservation_create_names_blockers(self):
        system, ledger = ledger_system()
        a = system.submit(rigid(32, 300, "a"), FixedRuntimeApp(300))
        b = system.submit(rigid(32, 100, "b"), FixedRuntimeApp(100))
        system.run(until=0.0)
        (res,) = ledger.of_kind(DecisionKind.RESERVATION_CREATE)
        assert res.job_id == b.job_id
        assert res.payload["start"] == pytest.approx(300.0)
        assert res.payload["waiting_on"] == [a.job_id]

    def test_reservation_not_rerecorded_when_unchanged(self):
        system, ledger = ledger_system(MauiConfig(timer_interval=10.0))
        system.scheduler.iteration_skip_enabled = False
        a = system.submit(rigid(32, 300, "a"), FixedRuntimeApp(300))
        b = system.submit(rigid(32, 100, "b"), FixedRuntimeApp(100))
        system.run(until=100.0)
        # dozens of iterations re-planned the same reservation; one decision
        assert len(ledger.of_kind(DecisionKind.RESERVATION_CREATE)) == 1
        assert len(ledger.of_kind(DecisionKind.RESERVATION_SLIDE)) == 0

    def test_throttle_recorded_on_transition_only(self):
        system, ledger = ledger_system(
            MauiConfig(max_running_jobs_per_user=1, timer_interval=10.0)
        )
        system.scheduler.iteration_skip_enabled = False
        a = system.submit(rigid(4, 300, "hog"), FixedRuntimeApp(300))
        b = system.submit(rigid(4, 300, "hog"), FixedRuntimeApp(300))
        system.run(until=200.0)
        throttles = ledger.of_kind(DecisionKind.THROTTLE_REJECT)
        assert len(throttles) == 1
        assert throttles[0].job_id == b.job_id
        assert throttles[0].payload["limit"] == (
            "throttled by max_running_jobs_per_user=1"
        )

    def test_dyn_grant_decision(self):
        system, ledger = ledger_system()
        evo = system.submit(evolving(8, 500, "evo", extra=4), EvolvingWorkApp(500))
        hog = system.submit(rigid(16, 500, "hog"), FixedRuntimeApp(500))
        system.run()
        grants = ledger.of_kind(DecisionKind.DYN_GRANT)
        assert grants and grants[0].job_id == evo.job_id
        assert grants[0].payload["grant_id"] == "grant.1"
        assert grants[0].payload["policy"] == "NONE"

    def test_dyn_deny_on_insufficient_resources(self):
        system, ledger = ledger_system(num_nodes=1)
        evo = system.submit(evolving(4, 500, "evo", extra=8), EvolvingWorkApp(500))
        hog = system.submit(rigid(4, 500, "hog"), FixedRuntimeApp(500))
        system.run(until=300.0)
        denies = ledger.of_kind(DecisionKind.DYN_DENY)
        assert denies
        assert denies[0].payload["deny_kind"] == "resources"
        assert denies[0].payload["reason"] == "insufficient resources"

    def test_preemption_decisions(self):
        system, ledger = ledger_system(
            MauiConfig(preemption_for_dynamic=True), num_nodes=2
        )
        evo = system.submit(evolving(8, 1000, "evo"), EvolvingWorkApp(1000))
        blocker = system.submit(rigid(16, 500, "big"), FixedRuntimeApp(500))
        small = system.submit(rigid(8, 800, "small"), FixedRuntimeApp(800))
        system.run(until=200.0)
        (preempt,) = ledger.of_kind(DecisionKind.PREEMPTION)
        assert preempt.job_id == small.job_id
        assert preempt.payload["displaced_by"] == evo.job_id
        (grant,) = ledger.of_kind(DecisionKind.DYN_GRANT)
        assert grant.payload["preempted"] == [small.job_id]
        assert grant.payload["reason"] == "preempted backfill"
        # the preempted job's lost run shows up as a requeued component
        attribution = ledger.attribution(small.job_id, upto=system.now)
        assert attribution["components"].get("requeued", 0.0) > 0.0


class TestHolds:
    def test_hold_wait_is_attributed_to_the_hold(self):
        system, ledger = ledger_system(MauiConfig(timer_interval=10.0))
        system.scheduler.iteration_skip_enabled = False
        j = system.submit(rigid(8, 50, "alice"), FixedRuntimeApp(50))
        system.server.hold_job(j, kind="user")
        system.run(until=100.0)
        assert j.state is JobState.QUEUED
        system.server.release_hold(j)
        system.run(until=200.0)  # bounded: the periodic timer re-arms forever
        assert j.state is JobState.COMPLETED
        attribution = ledger.attribution(j.job_id)
        assert attribution["components"]["user_held"] == pytest.approx(
            100.0, abs=1e-6
        )
        assert attribution["wait"] == pytest.approx(j.wait_time, abs=1e-9)
        assert system.trace.count(EventKind.JOB_HOLD) == 1
        assert system.trace.count(EventKind.JOB_RELEASE) == 1

    def test_hold_validation(self, system):
        j = system.submit(rigid(8, 50), FixedRuntimeApp(50))
        with pytest.raises(ValueError):
            system.server.hold_job(j, kind="bogus")
        system.run()
        with pytest.raises(RuntimeError):
            system.server.hold_job(j)  # finished jobs cannot be held


class TestExportAndMirroring:
    def test_every_decision_mirrored_into_trace(self):
        """The ledger is the one record of its decisions: none is copied
        into the trace, whose events are all lifecycle observations, and
        every one is in the export, in order."""
        system, ledger = ledger_system()
        system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100))
        system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200))
        system.submit(evolving(8, 500, "e"), EvolvingWorkApp(500))
        system.run()
        assert {d.kind for d in ledger} >= {
            DecisionKind.STATIC_START, DecisionKind.DYN_GRANT
        }
        assert not any("seq" in e.payload for e in system.trace)
        assert system.trace.count(EventKind.SLO_BREACH) == 0
        assert [d.seq for d in ledger] == list(range(1, len(ledger) + 1))

    def test_export_jsonl_round_trip(self, tmp_path):
        system, ledger = ledger_system()
        system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100))
        system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200))
        system.run()
        path = tmp_path / "decisions.jsonl"
        count = ledger.export_jsonl(path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(ledger)
        restored = [json.loads(line) for line in lines]
        assert restored == [d.to_dict() for d in ledger]

    def test_registry_counters(self):
        system, ledger = ledger_system()
        registry = system.telemetry.registry
        system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100))
        system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200))
        system.run()
        per_kind = {
            dict(inst.labels)["kind"]: inst.value
            for inst in registry.collect()
            if inst.name == "repro_ledger_decisions_total"
        }
        assert sum(per_kind.values()) == len(ledger)
        assert per_kind == ledger.summary()
        assert registry.value("repro_ledger_waits_closed_total") == 2.0

    def test_decisions_deterministic_across_identical_runs(self):
        """Two identical runs emit structurally identical decision streams
        (job ids are process-global; normalise by first appearance)."""

        def run_once():
            system, ledger = ledger_system()
            system.submit(rigid(16, 100, "a"), FixedRuntimeApp(100))
            system.submit(rigid(32, 200, "b"), FixedRuntimeApp(200))
            system.submit(rigid(16, 50, "c"), FixedRuntimeApp(50))
            system.submit(evolving(8, 500, "e"), EvolvingWorkApp(500))
            system.run()
            text = "\n".join(json.dumps(d.to_dict()) for d in ledger)
            mapping: dict[str, str] = {}
            for match in re.finditer(r"job\.\d+", text):
                mapping.setdefault(match.group(), f"J{len(mapping)}")
            return re.sub(r"job\.\d+", lambda m: mapping[m.group()], text)

        assert run_once() == run_once()


class TestAttributionUnit:
    def test_unknown_job_returns_none(self):
        assert DecisionLedger().attribution("job.nope") is None

    def test_open_timeline_requires_horizon(self):
        system, ledger = ledger_system()
        a = system.submit(rigid(32, 300, "a"), FixedRuntimeApp(300))
        b = system.submit(rigid(32, 100, "b"), FixedRuntimeApp(100))
        system.run(until=50.0)
        assert ledger.attribution(b.job_id) is None
        partial = ledger.attribution(b.job_id, upto=system.now)
        assert partial["wait"] == pytest.approx(50.0, abs=1e-9)

    def test_components_sum_to_wait_for_simple_block(self):
        system, ledger = ledger_system()
        a = system.submit(rigid(32, 300, "a"), FixedRuntimeApp(300))
        b = system.submit(rigid(32, 100, "b"), FixedRuntimeApp(100))
        system.run()
        attribution = ledger.attribution(b.job_id)
        assert attribution["started"] == pytest.approx(300.0)
        total = sum(attribution["components"].values()) + sum(
            attribution["dyn_inflicted"].values()
        )
        assert total == pytest.approx(b.wait_time, abs=ATTRIBUTION_EPSILON)
        # b held the reservation the whole time
        assert attribution["components"]["reservation_held"] == pytest.approx(
            300.0, abs=1e-6
        )


# ----------------------------------------------------------------------
# acceptance: the seeded dynamic ESP workload under a DFS target policy
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def esp_dyn_run():
    """Dyn-600 (the paper's esp_dyn config with DFSTargetDelay) with the
    ledger on: the run every acceptance invariant is checked against."""
    telemetry = Telemetry(decision_ledger=True)
    system = BatchSystem(15, 8, dynamic_target_config(600.0), telemetry=telemetry)
    make_esp_workload(total_cores=120, dynamic=True, seed=2014).submit_to(system)
    system.run(max_events=5_000_000)
    assert not system.server.queue and system.server.active_count == 0
    return system, telemetry.ledger


class TestESPAcceptance:
    def test_every_finished_rigid_job_attribution_sums_exactly(self, esp_dyn_run):
        system, ledger = esp_dyn_run
        checked = 0
        for job in system.server.jobs.values():
            if job.flexibility is not JobFlexibility.RIGID or not job.is_finished:
                continue
            attribution = ledger.attribution(job.job_id)
            assert attribution is not None, job.job_id
            total = sum(attribution["components"].values()) + sum(
                attribution["dyn_inflicted"].values()
            )
            assert abs(total - job.wait_time) < ATTRIBUTION_EPSILON, job.job_id
            assert abs(attribution["wait"] - job.wait_time) < ATTRIBUTION_EPSILON
            checked += 1
        assert checked > 100  # the ESP workload has 230 jobs, most rigid

    def test_per_grant_totals_reconcile_with_grant_time_measurements(
        self, esp_dyn_run
    ):
        system, ledger = esp_dyn_run
        grants = ledger.grants()
        assert grants
        # collect every job's dyn_inflicted charges, bucketed by grant
        by_grant: dict[str, float] = {}
        for job in system.server.jobs.values():
            attribution = ledger.attribution(job.job_id, upto=system.now)
            if attribution is None:
                continue
            for grant_id, delay in attribution["dyn_inflicted"].items():
                by_grant[grant_id] = by_grant.get(grant_id, 0.0) + delay
        for decision in grants:
            grant_id = decision.payload["grant_id"]
            measured = decision.payload["total_delay"]
            # decision payload == ledger index == sum over job attributions
            assert ledger.grant_total(grant_id) == measured
            assert by_grant.get(grant_id, 0.0) == pytest.approx(
                measured, abs=ATTRIBUTION_EPSILON
            )
            assert measured == pytest.approx(
                sum(v["delay"] for v in decision.payload["victims"]),
                abs=ATTRIBUTION_EPSILON,
            )

    def test_dfs_charges_reconcile_with_scheduler_stats(self, esp_dyn_run):
        system, ledger = esp_dyn_run
        charged = sum(d.payload["charged"] for d in ledger.grants())
        assert charged == pytest.approx(
            system.scheduler.stats["total_delay_charged"], abs=1e-9
        )

    def test_displaced_rigid_jobs_are_rigid(self, esp_dyn_run):
        system, ledger = esp_dyn_run
        for decision in ledger.grants():
            for job_id in decision.payload["displaced_rigid"]:
                assert system.server.jobs[job_id].flexibility is JobFlexibility.RIGID

    def test_reservation_slides_carry_causal_evidence(self, esp_dyn_run):
        _, ledger = esp_dyn_run
        slides = ledger.of_kind(DecisionKind.RESERVATION_SLIDE)
        assert slides  # dynamic grants push reservations around
        for decision in slides:
            payload = decision.payload
            assert payload["slide"] == pytest.approx(
                payload["start"] - payload["previous_start"], abs=1e-9
            )

    def test_ledger_counter_matches_inflicted_total(self, esp_dyn_run):
        system, ledger = esp_dyn_run
        total = sum(d.payload["total_delay"] for d in ledger.grants())
        assert system.telemetry.registry.value(
            "repro_ledger_dyn_inflicted_seconds_total"
        ) == pytest.approx(total, abs=1e-6)
