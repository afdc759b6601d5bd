"""Tests for JobQueue and DynRequest."""

import pytest

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.jobs.job import Job, JobState
from repro.jobs.queue import DynRequest, JobQueue


def make_job(**kw):
    defaults = dict(request=ResourceRequest(cores=4), walltime=100.0)
    defaults.update(kw)
    return Job(**defaults)


class TestJobQueue:
    def test_push_and_iterate_in_order(self):
        queue = JobQueue()
        jobs = [make_job() for _ in range(3)]
        for job in jobs:
            queue.push(job)
        assert list(queue) == jobs
        assert len(queue) == 3

    def test_push_requires_queued_state(self):
        queue = JobQueue()
        job = make_job()
        job.state = JobState.RUNNING
        with pytest.raises(ValueError):
            queue.push(job)

    def test_double_push_rejected(self):
        queue = JobQueue()
        job = make_job()
        queue.push(job)
        with pytest.raises(ValueError):
            queue.push(job)

    def test_remove(self):
        queue = JobQueue()
        job = make_job()
        other = make_job()
        queue.push(job)
        queue.push(other)
        queue.remove(job)
        assert job not in queue and other in queue and list(queue) == [other]
        # an absent job is refused and the bookkeeping is untouched
        with pytest.raises(ValueError):
            queue.remove(job)
        assert other in queue and len(queue) == 1
        # a removed job may queue again (preemption requeues), at its rank
        # rather than at the tail: the queue is kept in rank order
        queue.push(job)
        assert job in queue and list(queue) == [job, other]

    def test_snapshot_is_a_copy(self):
        queue = JobQueue()
        queue.push(make_job())
        snap = queue.snapshot()
        snap.clear()
        assert len(queue) == 1

    def test_top_priority_detection(self):
        queue = JobQueue()
        queue.push(make_job())
        assert not queue.has_top_priority_job
        first, second = make_job(top_priority=True), make_job(top_priority=True)
        queue.push(first)
        queue.push(second)
        assert queue.has_top_priority_job
        # the lockdown holds while *any* Z job waits, whatever else leaves;
        # the plain job is the tail now, since Z jobs rank first
        queue.remove(first)
        queue.remove(list(queue)[-1])
        assert queue.has_top_priority_job
        queue.remove(second)
        assert not queue.has_top_priority_job and len(queue) == 0
        # a refused duplicate push leaves the count alone
        queue.push(first)
        with pytest.raises(ValueError):
            queue.push(first)
        queue.remove(first)
        assert not queue.has_top_priority_job


def submitted(submit, **kw):
    job = make_job(**kw)
    job.submit_time = submit
    return job


class TestRankOrder:
    def test_same_submit_time_comes_out_by_seq(self):
        queue = JobQueue()
        jobs = [submitted(5.0) for _ in range(4)]
        for job in reversed(jobs):
            queue.push(job)
        assert list(queue) == jobs

    def test_earlier_submit_ranks_ahead_of_later_push(self):
        queue = JobQueue()
        late, early = submitted(10.0), submitted(1.0)
        queue.push(late)
        queue.push(early)
        assert list(queue) == [early, late]

    def test_preempted_job_requeues_at_its_rank(self):
        queue = JobQueue()
        jobs = [submitted(float(t)) for t in range(4)]
        for job in jobs:
            queue.push(job)
        queue.remove(jobs[1])  # started ...
        queue.push(jobs[1])  # ... and preempted back
        assert list(queue) == jobs

    def test_z_jobs_come_first(self):
        queue = JobQueue()
        old, z_late, z_early = (
            submitted(0.0), submitted(9.0, top_priority=True),
            submitted(5.0, top_priority=True),
        )
        for job in (old, z_late, z_early):
            queue.push(job)
        assert list(queue) == [z_early, z_late, old]

    def test_snapshot_in_rank_order(self):
        queue = JobQueue()
        late, early = submitted(3.0), submitted(2.0)
        queue.push(late)
        queue.push(early)
        assert queue.snapshot() == [early, late]


class TestGateCount:
    def test_push_and_remove(self):
        queue = JobQueue()
        plain, held, dependent = (
            submitted(0.0), submitted(1.0, hold="user"),
            submitted(2.0, depends_on="job.x"),
        )
        queue.push(plain)
        assert not queue.has_gated_job
        queue.push(held)
        queue.push(dependent)
        queue.remove(held)
        assert queue.has_gated_job
        queue.remove(dependent)
        assert not queue.has_gated_job

    def test_set_hold_and_release(self):
        queue = JobQueue()
        job = submitted(0.0)
        queue.push(job)
        queue.set_hold(job, "system")
        assert queue.has_gated_job and job.hold == "system"
        # re-holding with another kind is still one gated job
        queue.set_hold(job, "user")
        queue.set_hold(job, None)
        assert not queue.has_gated_job and job.hold is None

    def test_hold_outside_the_queue_is_not_counted(self):
        queue = JobQueue()
        job = submitted(0.0)
        queue.set_hold(job, "user")
        assert not queue.has_gated_job
        queue.push(job)
        assert queue.has_gated_job
        queue.remove(job)
        queue.set_hold(job, None)
        assert not queue.has_gated_job

    def test_server_paths(self):
        from repro.system import BatchSystem

        system = BatchSystem(num_nodes=1, cores_per_node=4)
        server, queue = system.server, system.server.queue
        first, second = make_job(walltime=10.0), make_job(walltime=10.0)
        dependent = make_job(walltime=10.0, depends_on=first.job_id)
        for job in (first, second, dependent):
            server.submit(job)
        assert queue.has_gated_job
        server.cancel_queued(dependent)
        assert not queue.has_gated_job
        server.hold_job(second)
        assert queue.has_gated_job
        server.release_hold(second)
        assert not queue.has_gated_job
        # a held job that starts anyway leaves the count with it
        server.hold_job(first)
        server.start_job(first, Allocation({0: 4}))
        assert not queue.has_gated_job
        server.release_hold(first)
        assert not queue.has_gated_job and first.hold is None


class TestDynRequest:
    def test_resolve_invokes_callback_once(self):
        job = make_job()
        answers = []
        dreq = DynRequest(job, ResourceRequest(cores=4), 0.0, answers.append)
        grant = Allocation({0: 4})
        dreq.resolve(grant)
        assert answers == [grant]
        assert dreq.resolved

    def test_resolve_with_none_is_rejection(self):
        answers = []
        dreq = DynRequest(make_job(), ResourceRequest(cores=4), 0.0, answers.append)
        dreq.resolve(None)
        assert answers == [None]

    def test_double_resolve_rejected(self):
        dreq = DynRequest(make_job(), ResourceRequest(cores=4), 0.0, lambda g: None)
        dreq.resolve(None)
        with pytest.raises(RuntimeError):
            dreq.resolve(None)
