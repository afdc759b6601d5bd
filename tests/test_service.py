"""Tests for the always-on scheduler service (``repro.service``).

The headline contract is bit-identity: ESP runs driven through
:class:`SchedulerService` on the simulator backend must reproduce the
direct :class:`BatchSystem` schedules exactly — same ``(submit, start,
end, state)`` tuple per job, byte-identical trace/ledger exports.  The
rest covers the tenant API (admission throttling, cancel, queries,
dynamic grants) and the replay backend's shadow scheduling.
"""

import asyncio
import dataclasses

import pytest

import repro.jobs.job as jobmod
from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import JobState
from repro.maui.config import MauiConfig
from repro.obs import Telemetry
from repro.service import (
    AdmissionError,
    AdmissionPolicy,
    PolicyCore,
    ReplayBackend,
    SchedulerService,
    ServiceClosed,
    SimBackend,
    UnknownJob,
    parse_request,
    principal_of,
)
from repro.sim.events import EventKind
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload
from repro.workloads.spec import JobSpec
from tests.conftest import reset_job_ids

#: compact machine for the identity runs — same shape as the paper's
#: testbed but 4 nodes, so a full ESP pass stays fast enough for tier-1
NODES, PPN = 4, 8
DYN_CONFIG = MauiConfig(reservation_depth=5, reservation_delay_depth=5)


def spec(submit=0.0, cores=4, walltime=100.0, runtime=None, user="u", account=None):
    rt = walltime if runtime is None else runtime
    return JobSpec(
        submit_time=submit,
        request=ResourceRequest(cores=cores),
        walltime=walltime,
        user=user,
        account=account,
        app_factory=(lambda: FixedRuntimeApp(rt)),
    )


def policy_stats(stats):
    """Scheduler stats minus wall-clock timers (nondeterministic)."""
    return {k: v for k, v in dict(stats).items() if not k.endswith("_seconds")}


def schedule_of(jobs):
    return sorted(
        (j.job_id, j.submit_time, j.start_time, j.end_time, j.state.value)
        for j in jobs
    )


def run_direct(dynamic, *, config=None, telemetry=None):
    reset_job_ids()
    system = BatchSystem(NODES, PPN, config, telemetry=telemetry)
    make_esp_workload(NODES * PPN, dynamic=dynamic, seed=2014).submit_to(system)
    system.run(max_events=5_000_000)
    return system


def run_via_service(dynamic, *, config=None, telemetry=None):
    reset_job_ids()
    backend = SimBackend(
        num_nodes=NODES, cores_per_node=PPN, config=config, telemetry=telemetry
    )
    workload = make_esp_workload(NODES * PPN, dynamic=dynamic, seed=2014)

    async def drive():
        async with SchedulerService(backend) as service:
            for job_spec in workload:
                await service.submit(job_spec)
            await service.drain()

    asyncio.run(drive())
    return backend


class TestBitIdentity:
    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_esp_schedule_identical(self, dynamic):
        config = DYN_CONFIG if dynamic else None
        direct = run_direct(dynamic, config=config)
        via = run_via_service(dynamic, config=config)
        want = schedule_of(direct.server.jobs.values())
        got = schedule_of(via.core.server.jobs.values())
        assert want, "direct run produced no jobs"
        assert got == want

    def test_scheduler_stats_identical(self):
        direct = run_direct(True, config=DYN_CONFIG)
        via = run_via_service(True, config=DYN_CONFIG)
        assert policy_stats(via.core.scheduler.stats) == policy_stats(
            direct.scheduler.stats
        )

    def test_exports_byte_identical(self, tmp_path):
        from repro.obs import Telemetry, export_jsonl

        dumps = {}
        for label, runner in (("direct", run_direct), ("service", run_via_service)):
            telemetry = Telemetry(decision_ledger=True)
            run = runner(True, config=DYN_CONFIG, telemetry=telemetry)
            trace = run.trace if label == "direct" else run.core.trace
            export_jsonl(trace, tmp_path / f"{label}.trace.jsonl")
            telemetry.ledger.export_jsonl(tmp_path / f"{label}.ledger.jsonl")
            dumps[label] = (
                (tmp_path / f"{label}.trace.jsonl").read_bytes(),
                (tmp_path / f"{label}.ledger.jsonl").read_bytes(),
            )
        assert dumps["service"][0] == dumps["direct"][0]
        assert dumps["service"][1] == dumps["direct"][1]

    def test_runner_helper_matches_direct_metrics(self):
        from repro.experiments.configs import configuration
        from repro.experiments.runner import run_esp_configuration

        cfg = configuration("Dyn-HP")
        reset_job_ids()
        direct = run_esp_configuration(cfg, num_nodes=NODES, cores_per_node=PPN)
        reset_job_ids()
        via = run_esp_configuration(
            cfg, num_nodes=NODES, cores_per_node=PPN, via_service=True
        )
        assert via.metrics.workload_time == direct.metrics.workload_time
        assert via.metrics.satisfied_dyn_jobs == direct.metrics.satisfied_dyn_jobs
        assert via.metrics.utilization == direct.metrics.utilization
        assert policy_stats(via.scheduler_stats) == policy_stats(
            direct.scheduler_stats
        )


class TestTenantApi:
    def drive(self, coro):
        return asyncio.run(coro)

    def test_submit_drain_complete(self):
        backend = SimBackend(num_nodes=2, cores_per_node=8, config=MauiConfig())

        async def scenario():
            async with SchedulerService(backend) as service:
                infos = [await service.submit(spec(cores=8)) for _ in range(2)]
                assert all(i.state == "queued" for i in infos)
                processed = await service.drain()
                assert processed > 0
                return [await service.job_info(i.job_id) for i in infos]

        finals = self.drive(scenario())
        assert all(i.state == "completed" for i in finals)
        assert all(i.end_time is not None for i in finals)

    def test_queue_info_counts(self):
        backend = SimBackend(num_nodes=2, cores_per_node=8, config=MauiConfig())

        async def scenario():
            async with SchedulerService(backend) as service:
                for user in ("ann", "bob", "bob"):
                    await service.submit(spec(cores=4, user=user))
                before = await service.queue_info()
                await service.drain()
                after = await service.queue_info()
                return before, after

        before, after = self.drive(scenario())
        assert before.queued == 3 and before.total_jobs == 3
        assert before.open_by_principal == {"ann": 1, "bob": 2}
        assert after.finished == 3 and after.pending_events == 0
        assert after.open_by_principal == {}

    def test_cancel_queued_job(self):
        backend = SimBackend(num_nodes=1, cores_per_node=8, config=MauiConfig())

        async def scenario():
            async with SchedulerService(backend) as service:
                # the second 8-core job must wait behind the first: cancellable
                await service.submit(spec(cores=8, walltime=50.0))
                victim = await service.submit(spec(cores=8, walltime=50.0))
                info = await service.cancel(victim.job_id, "user abort")
                await service.drain()
                return info, await service.job_info(victim.job_id)

        cancelled, final = self.drive(scenario())
        assert cancelled.state == JobState.ABORTED.value
        assert final.start_time is None
        assert backend.core.server.jobs[cancelled.job_id].state is JobState.ABORTED

    def test_cancel_wakes_the_scheduler(self):
        """The job a cancelled reservation was holding back starts at the
        cancel, not at the next completion."""
        backend = SimBackend(num_nodes=1, cores_per_node=8, config=MauiConfig())

        async def scenario():
            async with SchedulerService(backend) as service:
                await service.submit(spec(cores=4, walltime=1000.0))
                # reserved at t=1000; the job behind it would cross that window
                victim = await service.submit(spec(cores=8, walltime=100.0))
                tail = await service.submit(spec(cores=4, walltime=2000.0))
                await service.run_until(10.0)
                await service.cancel(victim.job_id)
                await service.drain()
                return await service.job_info(tail.job_id)

        assert self.drive(scenario()).start_time == 10.0

    def test_unknown_job_raises(self):
        backend = SimBackend(num_nodes=1, cores_per_node=8)

        async def scenario():
            async with SchedulerService(backend) as service:
                with pytest.raises(UnknownJob):
                    await service.job_info("nope-42")
                with pytest.raises(UnknownJob):
                    await service.cancel("nope-42")

        self.drive(scenario())

    def test_future_dated_job_visible_until_its_submit_time(self):
        """An acknowledged submission is a known job even while the server
        has not seen it yet; it cannot be cancelled before then."""
        backend = SimBackend(num_nodes=1, cores_per_node=8, config=MauiConfig())

        async def scenario():
            async with SchedulerService(backend) as service:
                ack = await service.submit(spec(submit=100.0, walltime=60.0))
                early = await service.job_info(ack.job_id)
                with pytest.raises(RuntimeError, match="not submitted yet"):
                    await service.cancel(ack.job_id)
                await service.drain()
                return early, await service.job_info(ack.job_id)

        early, final = self.drive(scenario())
        assert early.state == JobState.QUEUED.value and early.submit_time is None
        assert final.state == JobState.COMPLETED.value
        assert (final.submit_time, final.end_time) == (100.0, 160.0)
        assert backend._scheduled == {}

    def test_closed_service_raises(self):
        backend = SimBackend(num_nodes=1, cores_per_node=8)
        service = SchedulerService(backend)

        async def unstarted():
            await service.submit(spec())

        with pytest.raises(ServiceClosed):
            asyncio.run(unstarted())

        async def stopped():
            async with service:
                pass
            await service.queue_info()

        with pytest.raises(ServiceClosed):
            asyncio.run(stopped())

    def test_request_grow_granted(self):
        backend = SimBackend(num_nodes=2, cores_per_node=8, config=MauiConfig())

        async def scenario():
            async with SchedulerService(backend) as service:
                info = await service.submit(spec(cores=4, walltime=500.0))
                await service.run_until(1.0)  # job starts at t=0
                assert (await service.job_info(info.job_id)).state == "running"
                grow = asyncio.create_task(service.request_grow(info.job_id, 4))
                await asyncio.sleep(0)  # let the task enter the request
                await service.drain()
                return await grow, await service.job_info(info.job_id)

        result, final = self.drive(scenario())
        assert result.granted and result.cores == 4
        assert final.dyn_granted >= 1
        assert backend.core.server.jobs[result.job_id].state is JobState.COMPLETED

    def test_request_grow_validates_cores(self):
        backend = SimBackend(num_nodes=1, cores_per_node=8)

        async def scenario():
            async with SchedulerService(backend) as service:
                with pytest.raises(ValueError):
                    await service.request_grow("j", 0)

        self.drive(scenario())

    def test_run_until_bounds_the_clock(self):
        backend = SimBackend(num_nodes=1, cores_per_node=8, config=MauiConfig())

        async def scenario():
            async with SchedulerService(backend) as service:
                await service.submit(spec(cores=8, walltime=100.0))
                await service.submit(spec(submit=300.0, cores=8, walltime=100.0))
                await service.run_until(150.0)
                mid = await service.queue_info()
                await service.drain()
                return mid, await service.queue_info()

        mid, end = self.drive(scenario())
        assert mid.finished == 1 and mid.pending_events > 0
        assert mid.now <= 150.0
        assert end.finished == 2 and end.pending_events == 0

    def test_drain_spans_many_batches(self):
        """More pending events than ``batch_events``: the drain takes
        several bounded cycles instead of tripping the engine's runaway
        valve (``RuntimeError: exceeded max_events``)."""
        backend = SimBackend()
        workload = make_esp_workload(total_cores=120)

        async def scenario():
            async with SchedulerService(backend, batch_events=64) as service:
                for job_spec in workload:
                    await service.submit(job_spec)
                processed = await service.drain()
                return processed, dict(service.stats)

        processed, stats = self.drive(scenario())
        jobs = backend.core.server.jobs.values()
        assert len(jobs) == 230 and all(j.is_finished for j in jobs)
        assert stats["cycles"] > 1
        assert processed == stats["events_processed"] > 64 * (stats["cycles"] - 1)
        assert backend.pending() == 0

    def test_backend_raising_mid_advance_leaves_the_scheduler_awake(self):
        """An application that raises at launch fails the ``advance`` from
        inside a scheduler pass.  The drain's awaiter gets the error, the
        service stays up, and the next state change still wakes the
        scheduler: the pass-in-progress note (which holds back a pass's own
        wakes) does not outlive the pass that raised."""

        class Boom:
            def launch(self, ctx):
                raise RuntimeError("boom at launch")

        backend = SimBackend(num_nodes=1, cores_per_node=8, config=MauiConfig())

        async def scenario():
            async with SchedulerService(backend) as service:
                await service.submit(
                    dataclasses.replace(spec(cores=4, walltime=50.0), app_factory=Boom)
                )
                with pytest.raises(RuntimeError, match="boom at launch"):
                    await service.drain()
                assert not backend.core.scheduler._in_pass
                healthy = await service.submit(spec(cores=4, walltime=10.0))
                await service.drain()
                return await service.job_info(healthy.job_id)

        final = self.drive(scenario())
        assert final.state == "completed" and final.start_time == 0.0

    def test_batch_events_validated(self):
        with pytest.raises(ValueError):
            SchedulerService(SimBackend(num_nodes=1, cores_per_node=8), batch_events=0)


class TestAdmission:
    def test_principal_resolution(self):
        assert principal_of(spec(user="ann")) == "ann"
        assert principal_of(spec(user="ann", account="default")) == "ann"
        assert principal_of(spec(user="ann", account="")) == "ann"
        assert principal_of(spec(user="ann", account="proj7")) == "proj7"

    def test_empty_account_throttles_per_user(self):
        """Admission charges a job the principal fairness charges it: an
        empty account falls back to the user, so two users' jobs are two
        principals, not one shared ``""``."""
        backend = SimBackend(num_nodes=2, cores_per_node=4)
        policy = AdmissionPolicy(max_open_per_account=1)

        async def scenario():
            async with SchedulerService(backend, admission=policy) as service:
                await service.submit(spec(cores=4, user="alice", account=""))
                await service.submit(spec(cores=4, user="bob", account=""))
                with pytest.raises(AdmissionError) as excinfo:
                    await service.submit(spec(cores=4, user="bob", account=""))
                await service.drain()
                return excinfo.value, service.stats

        error, stats = asyncio.run(scenario())
        assert error.principal == "bob"
        assert stats["submitted"] == 2
        assert stats["admission_rejected"] == 1

    def test_policy_validates_limits(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_open_per_account=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_total_open=-1)

    def test_policy_check(self):
        policy = AdmissionPolicy(max_open_per_account=2, max_total_open=3)
        policy.check("ann", 1, 2)  # under both limits
        with pytest.raises(AdmissionError):
            policy.check("ann", 2, 2)
        with pytest.raises(AdmissionError):
            policy.check("ann", 1, 3)

    def test_service_throttles_per_principal(self):
        backend = SimBackend(num_nodes=2, cores_per_node=8, config=MauiConfig())
        policy = AdmissionPolicy(max_open_per_account=1)

        async def scenario():
            async with SchedulerService(backend, admission=policy) as service:
                await service.submit(spec(cores=4, user="ann"))
                with pytest.raises(AdmissionError) as excinfo:
                    await service.submit(spec(cores=4, user="ann"))
                # other principals (and ann's account-carrying jobs) admitted
                await service.submit(spec(cores=4, user="bob"))
                await service.submit(spec(cores=4, user="ann", account="proj7"))
                # once ann's job finishes, the open slot frees up
                await service.drain()
                await service.submit(spec(cores=4, user="ann"))
                await service.drain()
                return excinfo.value, service.stats

        error, stats = asyncio.run(scenario())
        assert error.principal == "ann"
        assert stats["submitted"] == 4
        assert stats["admission_rejected"] == 1

    @pytest.mark.parametrize(
        "submits",
        [[0.0] * 5, [100.0, 101.0, 102.0, 103.0, 104.0]],
        ids=["now", "future"],
    )
    def test_open_limit_counts_future_dated_jobs(self, submits):
        """Specs dated ahead of the clock are open from the moment they are
        acknowledged, exactly like specs dated now."""
        backend = SimBackend(num_nodes=2, cores_per_node=8, config=MauiConfig())
        policy = AdmissionPolicy(max_open_per_account=2)

        async def scenario():
            admitted = 0
            async with SchedulerService(backend, admission=policy) as service:
                for submit in submits:
                    try:
                        await service.submit(spec(submit=submit, cores=1))
                        admitted += 1
                    except AdmissionError:
                        pass
                open_before = (await service.queue_info()).open_by_principal
                await service.drain()
                return admitted, open_before, await service.queue_info()

        admitted, open_before, after = asyncio.run(scenario())
        assert admitted == 2
        assert open_before == {"u": 2}
        assert after.open_by_principal == {} and after.finished == 2

    def test_default_policy_admits_everything(self):
        policy = AdmissionPolicy()
        policy.check("anyone", 10_000, 10_000)


class _PruneByWalk:
    """The admission index as the service once kept it, as an oracle:
    every read looks each open job up again and drops the ones that
    ended, or that the backend no longer holds (folded and discarded)."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.open: dict[str, set[str]] = {}

    def admitted(self, principal: str, job_id: str) -> None:
        self.open.setdefault(principal, set()).add(job_id)

    def counts(self) -> dict[str, int]:
        for principal, ids in list(self.open.items()):
            for job_id in list(ids):
                job = self.backend.find_job(job_id)
                if job is None or job.is_finished:
                    ids.discard(job_id)
            if not ids:
                del self.open[principal]
        return {p: len(ids) for p, ids in sorted(self.open.items())}


class _WalkCounting(dict):
    """A job index that counts every walk over it."""

    def __init__(self, jobs) -> None:
        super().__init__(jobs)
        self.walks = 0

    def _walked(self, view):
        self.walks += 1
        return view

    def __iter__(self):
        return self._walked(super().__iter__())

    def keys(self):
        return self._walked(super().keys())

    def values(self):
        return self._walked(super().values())

    def items(self):
        return self._walked(super().items())


class TestAdmissionIndex:
    """The open-job index shrinks at each admitted job's exit event, and
    reads it without a walk."""

    @pytest.mark.parametrize("discard", [False, True], ids=["retained", "folded"])
    def test_index_matches_prune_by_walk(self, discard):
        """Two tenants through submit, cancel, a requeueing and an aborting
        node failure, a future-dated submit and (folded) fold-and-discard:
        after every command the open counts and each admission verdict equal
        the walk's."""
        telemetry = Telemetry(windows=600.0, fold_and_discard=True) if discard else None
        backend = SimBackend(
            num_nodes=2, cores_per_node=4, config=MauiConfig(), telemetry=telemetry
        )
        policy = AdmissionPolicy(max_open_per_account=3, max_total_open=5)
        oracle = _PruneByWalk(backend)
        core = backend.core
        core.engine.at(10.0, core.server.handle_node_failure, 0)
        core.engine.at(20.0, lambda: core.server.handle_node_failure(1, requeue=False))
        core.engine.at(30.0, core.server.recover_node, 0)
        core.engine.at(40.0, core.server.recover_node, 1)
        verdicts = []

        async def scenario():
            async with SchedulerService(backend, admission=policy) as service:

                async def agree():
                    info = await service.queue_info()
                    assert info.open_by_principal == oracle.counts()

                async def submit(job_spec):
                    counts = oracle.counts()
                    principal = principal_of(job_spec)
                    try:
                        policy.check(
                            principal, counts.get(principal, 0), sum(counts.values())
                        )
                        want = True
                    except AdmissionError:
                        want = False
                    try:
                        info = await service.submit(job_spec)
                    except AdmissionError:
                        got = None
                    else:
                        got = info.job_id
                        oracle.admitted(principal, got)
                    assert (got is not None) == want
                    verdicts.append(want)
                    await agree()
                    return got

                alice = [await submit(spec(cores=4, user="alice")) for _ in range(4)]
                bob = [await submit(spec(cores=4, user="bob")) for _ in range(3)]
                await service.cancel(alice[2], "user abort")
                await agree()
                await submit(spec(submit=50.0, cores=4, user="bob"))
                await submit(spec(cores=4, user="bob"))
                for until in (15.0, 25.0, 45.0, 60.0, 150.0):
                    await service.run_until(until)
                    await agree()
                    await submit(spec(cores=2, walltime=30.0, user="alice"))
                await service.drain()
                await agree()
                return alice, bob, await service.queue_info()

        alice, bob, final = asyncio.run(scenario())
        server = core.server
        assert alice[3] is None and bob[2] is None  # per-tenant, then total cap
        assert verdicts.count(False) >= 3 and final.open_by_principal == {}
        assert server.trace.count(EventKind.PREEMPT) == 1  # node 0 requeued one
        aborts = server.trace.of_kind(EventKind.JOB_ABORT)
        assert sorted(e.payload["reason"] for e in aborts) == [
            "node 1 failed", "user abort"
        ]
        assert (server.jobs_discarded > 0) == discard

    @pytest.mark.parametrize("retained", [10, 1000])
    def test_reads_make_no_lookup_and_no_walk(self, retained, monkeypatch):
        backend = SimBackend(num_nodes=1, cores_per_node=8)
        server = backend.core.server
        lookups = []
        find_job = backend.find_job

        def counted_find_job(job_id):
            lookups.append(job_id)
            return find_job(job_id)

        async def scenario():
            async with SchedulerService(backend) as service:
                for _ in range(retained):
                    await service.submit(spec(cores=1, walltime=10.0))
                await service.drain()
                monkeypatch.setattr(backend, "find_job", counted_find_job)
                monkeypatch.setattr(server, "jobs", _WalkCounting(server.jobs))
                before = await service.queue_info()
                await service.submit(spec(cores=1, user="v"))
                return before, await service.queue_info()

        before, after = asyncio.run(scenario())
        assert lookups == [] and server.jobs.walks == 0
        assert (before.finished, before.total_jobs) == (retained, retained)
        assert before.queued == before.running == 0
        assert before.open_by_principal == {}
        assert (after.queued, after.total_jobs) == (1, retained + 1)
        assert after.open_by_principal == {"v": 1}


class TestReplayBackend:
    def record_source_run(self):
        reset_job_ids()
        system = BatchSystem(2, 8, MauiConfig())
        for cores, walltime, runtime in ((8, 100.0, 80.0), (16, 60.0, 60.0), (4, 50.0, 10.0)):
            system.submit(
                jobmod.Job(request=ResourceRequest(cores=cores), walltime=walltime),
                FixedRuntimeApp(runtime),
            )
        system.run()
        return system

    def test_shadow_schedule_matches_recording(self):
        source = self.record_source_run()
        recorded = schedule_of(source.server.jobs.values())
        reset_job_ids()
        backend = ReplayBackend(num_nodes=2, cores_per_node=8, config=MauiConfig())
        specs = backend.ingest(list(source.trace))

        async def drive():
            async with SchedulerService(backend) as service:
                await service.drain()

        asyncio.run(drive())
        assert len(specs) == 3
        # same machine + same policy + recorded runtimes → same schedule
        assert schedule_of(backend.core.server.jobs.values()) == recorded

    def test_ingest_accepts_jsonl_rows(self, tmp_path):
        from repro.obs import export_jsonl
        from repro.obs.exporters import read_jsonl

        source = self.record_source_run()
        dump = tmp_path / "trace.jsonl"
        export_jsonl(source.trace, dump)
        reset_job_ids()
        backend = ReplayBackend(num_nodes=2, cores_per_node=8, config=MauiConfig())
        specs = backend.ingest(read_jsonl(dump))
        assert [s.request.total_cores for s in specs] == [8, 16, 4]

    def test_malformed_row_rejected(self):
        backend = ReplayBackend(num_nodes=1, cores_per_node=8)
        with pytest.raises(ValueError):
            backend.ingest([{"kind": "job_submit"}])  # no timestamp

    def test_recorded_runtime_preserved(self):
        source = self.record_source_run()
        reset_job_ids()
        backend = ReplayBackend(num_nodes=2, cores_per_node=8, config=MauiConfig())
        backend.ingest(list(source.trace))

        async def drive():
            async with SchedulerService(backend) as service:
                await service.drain()

        asyncio.run(drive())
        by_id = backend.core.server.jobs
        runs = sorted(
            (j.end_time - j.start_time)
            for j in by_id.values()
            if j.start_time is not None and j.end_time is not None
        )
        assert runs == pytest.approx([10.0, 60.0, 80.0])


class TestBackendPlumbing:
    def test_parse_request_roundtrip(self):
        for request in (ResourceRequest(cores=12), ResourceRequest(nodes=3, ppn=4)):
            assert parse_request(str(request)) == request

    def test_parse_request_rejects_garbage(self):
        for text in ("", "cores=4", "nodes=x:ppn=2", "procs=abc"):
            with pytest.raises(ValueError):
                parse_request(text)

    def test_sim_backend_rejects_core_and_kwargs(self):
        core = PolicyCore(num_nodes=1, cores_per_node=8)
        with pytest.raises(ValueError):
            SimBackend(core, num_nodes=2)

    def test_backend_protocol_satisfied(self):
        from repro.service import Backend

        assert isinstance(SimBackend(num_nodes=1, cores_per_node=8), Backend)

    def test_batch_system_facade_delegates_to_core(self):
        system = BatchSystem(2, 8, MauiConfig())
        assert isinstance(system, PolicyCore)
        # ... so a backend can drive the very same object
        assert SimBackend(system).core is system
