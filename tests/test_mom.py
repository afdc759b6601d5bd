"""The mother-superior side of TM, driven through the server.

In Torque the first node of a job's allocation runs the *mother superior*
mom, which joins the job's nodes at start and ``dyn_join`` / ``dyn_disjoin``
when the allocation grows or shrinks (paper Figs. 3 and 4).  Here the MS is
recorded on the job's TM context at ``start_job`` and which cores the job
holds is its allocation, so these cases play scheduler and application by
hand against a bare :class:`~repro.rms.server.Server` and read the cluster's
free-core list, never a per-node daemon.
"""

import pytest

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.jobs.job import Job, JobState
from repro.rms.server import Server
from repro.sim.engine import Engine
from repro.sim.events import EventKind


class Probe:
    """An application that keeps its TM context and never finishes."""

    ctx = None

    def launch(self, ctx):
        self.ctx = ctx


@pytest.fixture
def server():
    return Server(Engine(), Cluster.homogeneous(4, 8))


def start(server, cores_by_node):
    """Submit and start a job on ``cores_by_node``; returns (job, ctx)."""
    alloc = Allocation(cores_by_node)
    app = Probe()
    job = server.submit(
        Job(request=ResourceRequest(cores=alloc.total_cores), walltime=100.0), app
    )
    server.start_job(job, alloc)
    return job, app.ctx


def grant(server, job, cores_by_node):
    """Ask for and grant ``cores_by_node`` through the dynamic path."""
    extra = Allocation(cores_by_node)
    answers = []
    server.dyn_request(job, ResourceRequest(cores=extra.total_cores), answers.append)
    server.grant_dynamic(server.dyn_queue[-1], extra)
    assert answers == [extra]


def held(server):
    """Cores in use per node, read from the cluster's one free-core list."""
    cluster = server.cluster
    return [n.cores - cluster.node_free[n.index] for n in cluster.nodes]


def snapshot(server, job):
    return (
        job.state,
        job.allocation,
        held(server),
        server.cluster.used_cores,
        len(server.trace),
    )


class TestJoin:
    def test_join_sets_mother_superior_to_lowest_node(self, server):
        job, ctx = start(server, {2: 4, 1: 4})
        assert ctx.mother_superior == 1
        (event,) = server.trace.of_kind(EventKind.JOB_START)
        assert event.payload["mother_superior"] == 1
        assert held(server) == [0, 4, 4, 0]
        assert server.cluster.used_cores == 8

    def test_double_join_rejected(self, server):
        job, _ = start(server, {0: 4})
        before = snapshot(server, job)
        with pytest.raises(RuntimeError):
            server.start_job(job, Allocation({1: 4}))
        assert snapshot(server, job) == before

    def test_join_empty_rejected(self, server):
        job = server.submit(Job(request=ResourceRequest(cores=4), walltime=100.0))
        with pytest.raises(RuntimeError):
            server.start_job(job, Allocation({}))
        assert job.state is JobState.QUEUED
        assert held(server) == [0, 0, 0, 0]

    def test_mom_oversubscription_rejected(self, server):
        start(server, {0: 8})
        job_b = server.submit(Job(request=ResourceRequest(cores=1), walltime=100.0))
        with pytest.raises(ValueError):
            server.start_job(job_b, Allocation({0: 1}))
        assert job_b.state is JobState.QUEUED
        assert held(server) == [8, 0, 0, 0]


class TestDynJoin:
    def test_expands_allocation(self, server):
        job, ctx = start(server, {0: 4})
        grant(server, job, {1: 8})
        assert job.allocation == Allocation({0: 4, 1: 8})
        assert held(server) == [4, 8, 0, 0]
        # mother superior unchanged by expansion
        assert ctx.mother_superior == 0

    def test_requires_running_job(self, server):
        job = server.submit(Job(request=ResourceRequest(cores=4), walltime=100.0))
        with pytest.raises(RuntimeError):
            server.dyn_request(job, ResourceRequest(cores=4), lambda grant: None)
        assert not server.dyn_queue

    def test_same_node_expansion(self, server):
        job, _ = start(server, {0: 4})
        grant(server, job, {0: 2})
        assert job.allocation[0] == 6
        assert held(server) == [6, 0, 0, 0]


class TestDynDisjoin:
    def test_releases_subset(self, server):
        job, ctx = start(server, {0: 4, 1: 8})
        assert ctx.tm_dynfree({1: 8})
        assert job.allocation == Allocation({0: 4})
        assert held(server) == [4, 0, 0, 0]

    def test_partial_node_release(self, server):
        job, ctx = start(server, {0: 8})
        assert ctx.tm_dynfree({0: 3})
        assert job.allocation == Allocation({0: 5})
        assert held(server) == [5, 0, 0, 0]

    def test_mother_superior_keeps_a_core(self, server):
        job, ctx = start(server, {0: 4, 1: 4})
        before = snapshot(server, job)
        with pytest.raises(RuntimeError):
            server.dyn_free(job, Allocation({0: 4}))
        assert not ctx.tm_dynfree({0: 4})
        assert snapshot(server, job) == before

    def test_mother_superior_is_not_recomputed_after_a_lower_grant(self, server):
        job, ctx = start(server, {2: 4})
        grant(server, job, {0: 8})
        assert ctx.mother_superior == 2
        before = snapshot(server, job)
        with pytest.raises(RuntimeError):
            server.dyn_free(job, Allocation({2: 4}))
        assert snapshot(server, job) == before
        # the granted node below the MS is an ordinary node: all of it may go
        assert ctx.tm_dynfree({0: 8})
        assert job.allocation == Allocation({2: 4})

    def test_release_more_than_held_rejected(self, server):
        job, _ = start(server, {0: 4, 1: 2})
        before = snapshot(server, job)
        with pytest.raises(ValueError):
            server.dyn_free(job, Allocation({1: 3}))
        assert snapshot(server, job) == before

    def test_release_from_absent_node_rejected(self, server):
        job, _ = start(server, {0: 4, 1: 1})
        before = snapshot(server, job)
        with pytest.raises(ValueError):
            server.dyn_free(job, Allocation({2: 1, 1: 1}))
        assert snapshot(server, job) == before


class TestExit:
    def test_exit_detaches_everywhere(self, server):
        job, ctx = start(server, {0: 4, 3: 8})
        ctx.finish()
        assert job.state is JobState.COMPLETED
        assert held(server) == [0, 0, 0, 0]
        assert server.cluster.used_cores == 0
        assert server.active_count == 0

    def test_exit_requires_join(self, server):
        job = server.submit(Job(request=ResourceRequest(cores=4), walltime=100.0))
        with pytest.raises(RuntimeError):
            server.complete_job(job)
        assert job.state is JobState.QUEUED

    def test_two_jobs_share_a_node(self, server):
        a, ctx_a = start(server, {0: 4})
        b, _ = start(server, {0: 4})
        ctx_a.finish()
        assert held(server) == [4, 0, 0, 0]
        assert b.allocation == Allocation({0: 4})
