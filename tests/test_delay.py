"""Tests for delay measurement (Algorithm 2's fairness input)."""

from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.profile import AvailabilityProfile, NoFitError
from repro.jobs.job import Job
from repro.maui.delay import measure_delays
from repro.maui.reservations import plan_static
from tests.reference_profile import ReferenceAvailabilityProfile


def profile(nodes=4, cores=8, busy_until=None):
    idx = list(range(nodes))
    prof = AvailabilityProfile(idx, {i: cores for i in idx}, 0.0, {i: cores for i in idx})
    if busy_until:
        for node, until in busy_until.items():
            prof.add_claim(0.0, until, Allocation({node: cores}))
    return prof


def job(cores, walltime=100.0):
    j = Job(request=ResourceRequest(cores=cores), walltime=walltime)
    j.submit_time = 0.0
    return j


class TestMeasureDelays:
    def test_no_queue_no_victims(self):
        assert measure_delays([], profile(), Allocation({0: 4}), 100.0, 0.0, 5) == []

    def test_claim_delays_blocked_job(self):
        # nodes 0-1 busy until 100; queued job needs the whole machine
        prof = profile(busy_until={0: 100.0, 1: 100.0})
        waiting = job(32)
        claim = Allocation({2: 8})  # idle cores the evolving job wants
        victims = measure_delays([waiting], prof, claim, 400.0, 0.0, 5)
        assert len(victims) == 1
        # without the claim the job starts at 100; with it, at 400
        assert victims[0].delay == 300.0

    def test_unaffected_job_has_zero_delay(self):
        prof = profile()
        small = job(4)
        claim = Allocation({3: 8})
        victims = measure_delays([small], prof, claim, 1000.0, 0.0, 5)
        assert victims[0].delay == 0.0

    def test_start_now_job_can_be_delayed(self):
        prof = profile()
        # job fits now only if the claimed cores stay free
        wide = job(32)
        claim = Allocation({0: 8})
        victims = measure_delays([wide], prof, claim, 250.0, 0.0, 5)
        assert victims[0].delay == 250.0

    def test_depth_limits_victims(self):
        prof = profile(busy_until={0: 50.0, 1: 50.0, 2: 50.0})
        queued = [job(32, walltime=10.0) for _ in range(6)]
        victims = measure_delays(queued, prof, Allocation({3: 1}), 60.0, 0.0, 2)
        # 32-core jobs cannot start now: only depth=2 StartLater are planned
        assert len(victims) == 2

    def test_profile_not_mutated(self):
        prof = profile()
        before = prof.free_at(0.0)
        measure_delays([job(32)], prof, Allocation({0: 8}), 500.0, 0.0, 5)
        assert prof.free_at(0.0) == before

    def test_claim_ending_before_start_no_delay(self):
        # claim ends at t=10; the blocked job could only start at t=100 anyway
        prof = profile(busy_until={0: 100.0, 1: 100.0, 2: 100.0})
        blocked = job(32)
        victims = measure_delays([blocked], prof, Allocation({3: 8}), 10.0, 0.0, 5)
        assert victims[0].delay == 0.0

    def test_claim_ending_now_delays_nobody(self):
        # an empty claim interval adds nothing to the profile
        prof = profile(busy_until={0: 100.0})
        queued = [job(32), job(8)]
        victims = measure_delays(queued, prof, Allocation({1: 8}), 0.0, 0.0, 5)
        assert {v.job: v.delay for v in victims} == {j: 0.0 for j in queued}

    def test_multiple_victims_ordered_delays(self):
        prof = profile(busy_until={0: 100.0, 1: 100.0})
        first, second = job(32, walltime=50.0), job(32, walltime=50.0)
        claim = Allocation({2: 8})
        victims = measure_delays([first, second], prof, claim, 300.0, 0.0, 5)
        by_job = {v.job: v.delay for v in victims}
        # both pushed from (100, 150) to (300, 350)
        assert by_job[first] == 200.0
        assert by_job[second] == 200.0


def _oracle_plan(jobs, ref, now, depth):
    """``plan_static``'s contract on the reference profile: each job at its
    earliest fit in priority order, claimed before the next is planned."""
    start_now, start_later, unschedulable = [], [], []
    for j in jobs:
        if len(start_later) >= depth:
            break
        try:
            start, alloc = ref.earliest_fit(j.request, j.walltime, after=now)
        except NoFitError:
            unschedulable.append(j)
            continue
        ref.add_claim(start, start + j.walltime, alloc)
        (start_now if start == now else start_later).append((j, start, alloc))
    return start_now, start_later, unschedulable


def test_plan_static_probes_no_window_twice(monkeypatch):
    """The delay measurement plans the queue twice per dynamic request, so
    its probes are counted: a job the free cores at ``now`` rule out is not
    probed, and a job whose window at ``now`` failed is not probed there
    again by ``earliest_fit``.  The plan is the oracle's all the same."""
    idx = list(range(4))
    busy = {0: 100.0, 1: 100.0}
    queue = [job(8, 50.0), job(16), job(16), job(8, 200.0), job(8, 200.0),
             job(33), job(16)]
    ref = ReferenceAvailabilityProfile(idx, {i: 8 for i in idx}, 0.0)
    for node, until in busy.items():
        ref.add_claim(0.0, until, Allocation({node: 8}))
    expected = _oracle_plan(queue, ref, 0.0, depth=5)

    fits_at = AvailabilityProfile.fits_at
    probes = 0

    def counted(self, *args):
        nonlocal probes
        probes += 1
        return fits_at(self, *args)

    monkeypatch.setattr(AvailabilityProfile, "fits_at", counted)
    plan = plan_static(queue, profile(busy_until=busy), 0.0, depth=5)
    assert [(p.job, p.start, p.allocation) for p in plan.start_now] == expected[0]
    assert [(p.job, p.start, p.allocation) for p in plan.start_later] == expected[1]
    assert plan.unschedulable == expected[2]
    assert len(plan.start_now) == 1 and len(plan.start_later) == 5
    # the one start, and the two 8-core jobs the free cores cannot rule
    # out; 13 when every job that did not start now was probed twice
    assert probes == 3
