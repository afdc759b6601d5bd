"""Tests for the pbs_server: job lifecycle and the dynamic request path.

These tests drive the server directly (no scheduler attached), playing the
scheduler's role by hand, so every transition can be asserted in isolation.
"""

import pytest

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.jobs.job import Job, JobFlexibility, JobState
from repro.rms.server import Server
from repro.sim.engine import Engine
from repro.sim.events import EventKind
from tests.test_faults import ScriptedFaults


@pytest.fixture
def bare():
    engine = Engine()
    cluster = Cluster.homogeneous(4, 8)
    return engine, cluster, Server(engine, cluster)


def make_job(**kw):
    defaults = dict(request=ResourceRequest(cores=8), walltime=100.0)
    defaults.update(kw)
    return Job(**defaults)


class TestSubmit:
    def test_submit_queues_and_traces(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        assert job.state is JobState.QUEUED
        assert job.submit_time == 0.0
        assert job in server.queue
        assert server.trace.count(EventKind.JOB_SUBMIT) == 1

    def test_double_submit_rejected(self, bare):
        _, _, server = bare
        job = server.submit(make_job())
        with pytest.raises(ValueError):
            server.submit(job)

    def test_submit_notifies_listener(self, bare):
        _, _, server = bare
        calls = []
        server.on_state_change = lambda: calls.append(1)
        server.submit(make_job())
        assert calls == [1]


class TestStartAndComplete:
    def test_start_claims_resources(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        server.start_job(job, Allocation({0: 8}))
        assert job.state is JobState.RUNNING
        assert cluster.used_cores == 8
        assert cluster.node_free[0] == 0
        assert job not in server.queue

    def test_start_requires_queued(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        server.start_job(job, Allocation({0: 8}))
        with pytest.raises(RuntimeError):
            server.start_job(job, Allocation({1: 8}))

    def test_undersized_allocation_rejected(self, bare):
        _, _, server = bare
        job = server.submit(make_job())
        with pytest.raises(RuntimeError):
            server.start_job(job, Allocation({0: 4}))

    def test_default_app_runs_full_walltime(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job(walltime=50.0))
        server.start_job(job, Allocation({0: 8}))
        engine.run()
        assert job.state is JobState.COMPLETED
        assert job.end_time == 50.0
        assert cluster.used_cores == 0

    def test_walltime_abort_kills_overrunning_app(self, bare):
        engine, cluster, server = bare

        class Immortal:
            def launch(self, ctx):
                pass  # never finishes

        job = server.submit(make_job(walltime=30.0))
        server._apps[job.job_id] = Immortal()
        server.start_job(job, Allocation({0: 8}))
        engine.run()
        assert job.state is JobState.ABORTED
        assert job.end_time == 30.0
        assert server.trace.count(EventKind.JOB_ABORT) == 1
        assert cluster.used_cores == 0

    def test_completion_exactly_at_walltime_is_normal(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job(walltime=100.0))
        server.start_job(job, Allocation({0: 8}))  # default app: walltime run
        engine.run()
        assert job.state is JobState.COMPLETED

    def test_backfilled_flag_recorded(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        server.start_job(job, Allocation({0: 8}), backfilled=True)
        assert job.backfilled
        assert server.trace.count(EventKind.BACKFILL_START) == 1
        assert server.trace.count(EventKind.JOB_START) == 0

    def test_abort_job(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        server.start_job(job, Allocation({0: 8}))
        server.abort_job(job, "node failure")
        assert job.state is JobState.ABORTED
        assert cluster.used_cores == 0

    def test_cancel_queued(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        server.cancel_queued(job)
        assert job.state is JobState.ABORTED
        assert job not in server.queue

    def test_cancel_running_rejected(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        server.start_job(job, Allocation({0: 8}))
        with pytest.raises(RuntimeError):
            server.cancel_queued(job)


class TestDynamicPath:
    def _running_evolving(self, server):
        job = server.submit(
            make_job(request=ResourceRequest(cores=4), flexibility=JobFlexibility.EVOLVING)
        )
        server.start_job(job, Allocation({0: 4}))
        return job

    def test_dyn_request_enters_dynqueued(self, bare):
        _, _, server = bare
        job = self._running_evolving(server)
        server.dyn_request(job, ResourceRequest(cores=4), lambda g: None)
        assert job.state is JobState.DYNQUEUED
        assert len(server.dyn_queue) == 1
        assert server.trace.count(EventKind.DYN_REQUEST) == 1

    def test_dyn_request_requires_running(self, bare):
        _, _, server = bare
        job = server.submit(make_job())
        with pytest.raises(RuntimeError):
            server.dyn_request(job, ResourceRequest(cores=4), lambda g: None)

    def test_grant_expands_allocation(self, bare):
        engine, cluster, server = bare
        job = self._running_evolving(server)
        answers = []
        server.dyn_request(job, ResourceRequest(cores=4), answers.append)
        dreq = server.dyn_queue[0]
        grant = Allocation({1: 4})
        server.grant_dynamic(dreq, grant)
        assert job.state is JobState.RUNNING
        assert job.allocation.total_cores == 8
        assert job.dyn_granted == 1
        assert answers == [grant]
        assert cluster.used_cores == 8
        assert cluster.node_free[1] == 4
        assert not server.dyn_queue

    def test_reject_keeps_allocation(self, bare):
        engine, cluster, server = bare
        job = self._running_evolving(server)
        answers = []
        server.dyn_request(job, ResourceRequest(cores=4), answers.append)
        server.reject_dynamic(server.dyn_queue[0], "testing")
        assert job.state is JobState.RUNNING
        assert job.allocation.total_cores == 4
        assert job.dyn_rejected == 1
        assert answers == [None]

    def test_grant_unpended_request_rejected(self, bare):
        engine, cluster, server = bare
        job = self._running_evolving(server)
        server.dyn_request(job, ResourceRequest(cores=4), lambda g: None)
        dreq = server.dyn_queue[0]
        server.reject_dynamic(dreq)
        with pytest.raises(RuntimeError):
            server.grant_dynamic(dreq, Allocation({1: 4}))

    def test_dyn_free_releases_subset(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job(request=ResourceRequest(cores=8)))
        server.start_job(job, Allocation({0: 4, 1: 4}))
        server.dyn_free(job, Allocation({1: 4}))
        assert job.allocation == Allocation({0: 4})
        assert cluster.used_cores == 4
        assert server.trace.count(EventKind.DYN_RELEASE) == 1

    def test_pending_request_dies_with_job(self, bare):
        engine, cluster, server = bare
        job = self._running_evolving(server)
        server.dyn_request(job, ResourceRequest(cores=4), lambda g: None)
        server.abort_job(job, "killed")
        assert not server.dyn_queue


class TestPreemption:
    def test_preempt_requeues_and_releases(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        server.start_job(job, Allocation({0: 8}), backfilled=True)
        engine.run(until=10.0)
        server.preempt_job(job)
        assert job.state is JobState.QUEUED
        assert job.allocation is None
        assert job.start_time is None
        assert cluster.used_cores == 0
        assert job in server.queue
        assert job.metadata["preempt_count"] == 1

    def test_preempted_job_can_restart(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job(walltime=40.0))
        server.start_job(job, Allocation({0: 8}))
        engine.run(until=10.0)
        server.preempt_job(job)
        server.start_job(job, Allocation({1: 8}))
        engine.run()
        # restarted from scratch at t=10: full walltime run ends at 50
        assert job.state is JobState.COMPLETED
        assert job.end_time == 50.0

    def test_preempting_inactive_rejected(self, bare):
        _, _, server = bare
        job = server.submit(make_job())
        with pytest.raises(RuntimeError):
            server.preempt_job(job)


class TestMerge:
    def test_merge_transfers_allocation(self, bare):
        engine, cluster, server = bare
        parent = server.submit(make_job(request=ResourceRequest(cores=8)))
        server.start_job(parent, Allocation({0: 8}))
        stub = server.submit(make_job(request=ResourceRequest(cores=4), walltime=50.0))
        server.start_job(stub, Allocation({1: 4}))

        class Hold:
            def launch(self, ctx):
                pass

        transferred = server.merge_allocations(stub, parent)
        assert transferred == Allocation({1: 4})
        assert parent.allocation.total_cores == 12
        assert stub.state is JobState.COMPLETED
        assert parent.dyn_granted == 1
        assert cluster.used_cores == 12
        assert stub.allocation is None
        assert cluster.node_free[:2] == [0, 4]

    @pytest.mark.parametrize("pending", ["resources", "grant_retry"])
    def test_merge_drops_the_helpers_pending_request(self, bare, pending):
        """A merged helper leaves nothing behind that could claim cores."""
        engine, cluster, server = bare
        parent = server.submit(make_job(request=ResourceRequest(cores=8)))
        server.start_job(parent, Allocation({0: 8}))
        stub = server.submit(make_job(request=ResourceRequest(cores=4), walltime=50.0))
        server.start_job(stub, Allocation({1: 4}))
        answers = []
        server.dyn_request(stub, ResourceRequest(cores=4), answers.append)
        if pending == "grant_retry":
            server.attach_faults(ScriptedFaults(drops={1}))
            server.grant_dynamic(server.dyn_queue[0], Allocation({2: 4}))
        server.merge_allocations(stub, parent)
        assert [d for d in server.dyn_queue if d.job is stub] == []
        assert stub.job_id not in server._pending_deliveries
        assert cluster.used_cores == 12
        engine.run(until=20.0)  # past the retry's backoff
        assert answers == []
        assert cluster.used_cores == 12
        assert parent.allocation.total_cores == 12

    def test_merge_into_self_rejected(self, bare):
        engine, cluster, server = bare
        job = server.submit(make_job())
        server.start_job(job, Allocation({0: 8}))
        with pytest.raises(ValueError):
            server.merge_allocations(job, job)

    def test_merge_requires_both_active(self, bare):
        engine, cluster, server = bare
        parent = server.submit(make_job())
        stub = server.submit(make_job())
        with pytest.raises(RuntimeError):
            server.merge_allocations(stub, parent)
