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
        # a removed job may queue again (preemption requeues)
        queue.push(job)
        assert job in queue and list(queue) == [other, job]

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
        # the lockdown holds while *any* Z job waits, whatever else leaves
        queue.remove(first)
        queue.remove(next(iter(queue)))
        assert queue.has_top_priority_job
        queue.remove(second)
        assert not queue.has_top_priority_job and len(queue) == 0
        # a refused duplicate push leaves the count alone
        queue.push(first)
        with pytest.raises(ValueError):
            queue.push(first)
        queue.remove(first)
        assert not queue.has_top_priority_job


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
