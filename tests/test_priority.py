"""Tests for the prioritizer and the static fairshare tracker."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job
from repro.jobs.queue import JobQueue
from repro.maui.config import PriorityWeightsConfig
from repro.maui.priority import FairshareTracker, Prioritizer


def make_job(submit=0.0, **kw):
    defaults = dict(request=ResourceRequest(cores=4), walltime=100.0)
    defaults.update(kw)
    job = Job(**defaults)
    job.submit_time = submit
    return job


def make_prioritizer(**weights):
    w = PriorityWeightsConfig(**weights)
    fairshare = FairshareTracker(w.fairshare_interval, w.fairshare_decay)
    return Prioritizer(w, fairshare), fairshare


class TestPriority:
    def test_queue_time_orders_fifo(self):
        prio, _ = make_prioritizer()
        early, late = make_job(submit=0.0), make_job(submit=100.0)
        ordered = prio.order([late, early], now=200.0)
        assert ordered == [early, late]

    def test_ties_break_by_seq(self):
        prio, _ = make_prioritizer()
        a, b = make_job(submit=0.0), make_job(submit=0.0)
        assert prio.order([b, a], now=10.0) == [a, b]

    def test_top_priority_dominates(self):
        prio, _ = make_prioritizer()
        old = make_job(submit=0.0)
        z = make_job(submit=10_000.0, top_priority=True)
        assert prio.order([old, z], now=20_000.0)[0] is z

    def test_unsubmitted_job_rejected(self):
        prio, _ = make_prioritizer()
        job = Job(request=ResourceRequest(cores=1), walltime=10.0)
        with pytest.raises(ValueError):
            prio.priority(job, now=0.0)

    def test_fairshare_weight_prefers_light_users(self):
        prio, fairshare = make_prioritizer(queue_time=0.0, fairshare=1000.0)
        fairshare.add_usage("heavy", 10_000.0)
        heavy = make_job(submit=0.0, user="heavy")
        light = make_job(submit=0.0, user="light")
        assert prio.order([heavy, light], now=0.0)[0] is light

    def test_service_weight_prefers_larger_jobs(self):
        prio, _ = make_prioritizer(queue_time=0.0, service=1.0)
        small = make_job(submit=0.0, request=ResourceRequest(cores=2))
        big = make_job(submit=0.0, request=ResourceRequest(cores=16))
        assert prio.order([small, big], now=0.0)[0] is big

    @pytest.mark.parametrize(
        "weights, high, low",
        [
            pytest.param(
                dict(expansion_factor=1.0),
                dict(walltime=100.0),
                dict(walltime=1000.0),
                id="expansion_factor",
            ),
            pytest.param(
                dict(fairshare=1000.0), dict(user="light"), dict(user="heavy"),
                id="fairshare",
            ),
            pytest.param(
                dict(service=1.0),
                dict(request=ResourceRequest(cores=16)),
                dict(request=ResourceRequest(cores=2)),
                id="service",
            ),
            pytest.param(
                dict(credential=1.0, user_priorities={"vip": 100.0}),
                dict(user="vip"),
                dict(user="nobody"),
                id="credential",
            ),
        ],
    )
    def test_order_ties_resolve_by_submit_then_seq(self, weights, high, low):
        """Each factor separates the two classes; inside a class every
        priority is equal, so ``(submit_time, seq)`` alone orders it."""
        prio, fairshare = make_prioritizer(queue_time=0.0, **weights)
        fairshare.add_usage("heavy", 10_000.0)
        now = 100.0
        expected = []
        for kw in (high, low):
            first, second = make_job(submit=0.0, **kw), make_job(submit=0.0, **kw)
            # half the wait on half the walltime: the same expansion factor
            halved = {**kw, "walltime": kw.get("walltime", 100.0) / 2}
            late = make_job(submit=50.0, **halved)
            assert (
                prio.priority(first, now)
                == prio.priority(second, now)
                == prio.priority(late, now)
            )
            expected += [first, second, late]
        assert prio.priority(expected[0], now) > prio.priority(expected[-1], now)
        shuffled = expected[::-2] + expected[-2::-2]
        assert sorted(shuffled, key=id) == sorted(expected, key=id)
        assert prio.order(shuffled, now) == expected


def by_key(prio, jobs, now):
    return sorted(jobs, key=lambda j: (-prio.priority(j, now), j.submit_time, j.seq))


def ranked(jobs):
    queue = JobQueue()
    for job in jobs:
        queue.push(job)
    return queue.snapshot()


def counting(prio):
    """Count ``prio.priority`` calls made by ``prio.order``."""
    calls = []
    score = prio.priority

    def counted(job, now):
        calls.append(job)
        return score(job, now)

    prio.priority = counted
    return calls


class TestRankedOrder:
    """``order(..., ranked=True)`` on the queue's rank order returns it
    unscored under FIFO weights, and equals the keyed sort always."""

    @settings(max_examples=300, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 1e6]) | st.floats(0.0, 1e7),
                st.booleans(),
            ),
            max_size=12,
        ),
        queue_time=st.sampled_from([0.0, 1e-3, 1.0, 1e9]),
        lag=st.sampled_from([0.0, 1e-9]) | st.floats(0.0, 1e8),
        rng=st.randoms(use_true_random=False),
    )
    def test_equals_keyed_sort(self, draws, queue_time, lag, rng):
        prio, _ = make_prioritizer(queue_time=queue_time)
        jobs = [make_job(submit=s, top_priority=top) for s, top in draws]
        shuffled = jobs[:]
        rng.shuffle(shuffled)
        rank = ranked(shuffled)
        now = max((j.submit_time for j in jobs), default=0.0) + lag
        expected = by_key(prio, shuffled, now)
        calls = counting(prio)
        assert prio.order(rank, now, ranked=True) == expected
        oldest = min(
            (j.submit_time for j in jobs if not j.top_priority), default=now
        )
        if queue_time * (now - oldest) < 1e15:
            assert calls == []

    def test_fifo_scores_nothing(self):
        prio, _ = make_prioritizer()
        rank = ranked([make_job(submit=t) for t in (3.0, 1.0, 2.0, 1.0)])
        calls = counting(prio)
        assert prio.order(rank, 10.0, ranked=True) is rank
        assert calls == []
        # an unranked input is always sorted
        assert prio.order(rank[::-1], 10.0) == rank and calls

    @pytest.mark.parametrize(
        "weights, first, second",
        [
            pytest.param(
                dict(queue_time=0.0, expansion_factor=1.0),
                dict(walltime=1000.0), dict(walltime=10.0),
                id="expansion_factor",
            ),
            pytest.param(
                dict(queue_time=0.0, fairshare=1000.0), dict(user="heavy"), dict(user="light"),
                id="fairshare",
            ),
            pytest.param(
                dict(queue_time=0.0, service=1.0),
                dict(request=ResourceRequest(cores=2)),
                dict(request=ResourceRequest(cores=16)),
                id="service",
            ),
            pytest.param(
                dict(queue_time=0.0, credential=1.0, user_priorities={"vip": 1e6}),
                dict(user="nobody"), dict(user="vip"),
                id="credential",
            ),
            pytest.param(dict(queue_time=-1.0), {}, {}, id="negative_queue_time"),
        ],
    )
    def test_other_weights_sort(self, weights, first, second):
        prio, fairshare = make_prioritizer(**weights)
        fairshare.add_usage("heavy", 10_000.0)
        rank = ranked([make_job(submit=0.0, **first), make_job(submit=1.0, **second)])
        calls = counting(prio)
        ordered = prio.order(rank, 10.0, ranked=True)
        assert calls and ordered == by_key(prio, rank, 10.0) == rank[::-1]

    def test_wait_past_the_z_bound_sorts(self):
        """A non-Z score of at least ``1e15`` can pass a Z job."""
        prio, _ = make_prioritizer(queue_time=1e9)
        old = make_job(submit=0.0)
        z = make_job(submit=1e7, top_priority=True)
        rank = ranked([old, z])
        assert rank == [z, old]
        calls = counting(prio)
        assert prio.order(rank, 2e7, ranked=True) == [old, z]
        assert calls

    def test_z_job_submitted_after_now_sorts(self):
        """Only a wait of at least 0 keeps a Z score at ``1e15`` or more."""
        prio, _ = make_prioritizer()
        plain = make_job(submit=0.0)
        z = make_job(submit=1e15 + 100.0, top_priority=True)
        calls = counting(prio)
        assert prio.order(ranked([plain, z]), 10.0, ranked=True) == [plain, z]
        assert calls


class TestFairshareTracker:
    def test_usage_accumulates(self):
        fs = FairshareTracker(interval=100.0, decay=0.5)
        fs.add_usage("u", 40.0)
        fs.add_usage("u", 10.0)
        assert fs.usage("u") == 50.0

    def test_roll_decays(self):
        fs = FairshareTracker(interval=100.0, decay=0.5)
        fs.add_usage("u", 80.0)
        fs.roll(100.0)
        assert fs.usage("u") == 40.0
        fs.roll(300.0)  # two more intervals
        assert fs.usage("u") == 10.0

    def test_zero_decay_clears(self):
        fs = FairshareTracker(interval=100.0, decay=0.0)
        fs.add_usage("u", 80.0)
        fs.roll(150.0)
        assert fs.usage("u") == 0.0

    def test_normalized_usage(self):
        fs = FairshareTracker(interval=100.0, decay=0.5)
        fs.add_usage("a", 30.0)
        fs.add_usage("b", 10.0)
        assert fs.normalized_usage("a") == pytest.approx(0.75)
        assert fs.normalized_usage("missing") == 0.0

    def test_normalized_usage_empty(self):
        fs = FairshareTracker(interval=100.0, decay=0.5)
        assert fs.normalized_usage("anyone") == 0.0

    def test_negative_usage_rejected(self):
        fs = FairshareTracker(interval=100.0, decay=0.5)
        with pytest.raises(ValueError):
            fs.add_usage("u", -1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FairshareTracker(interval=0.0, decay=0.5)
        with pytest.raises(ValueError):
            FairshareTracker(interval=10.0, decay=1.5)

    @staticmethod
    def scalar_roll(tracker, now):
        """The per-user loop ``roll`` replaced, kept here as the oracle."""
        while now >= tracker.window_start + tracker.interval:
            tracker.window_start += tracker.interval
            for user in list(tracker._usage):
                tracker._usage[user] *= tracker.decay
                if tracker._usage[user] < 1e-9:
                    del tracker._usage[user]

    def test_roll_bit_identical_to_scalar(self):
        rng = random.Random(19)
        for _ in range(200):
            a = FairshareTracker(100.0, rng.choice([0.0, 0.5, 0.9, 0.99, 1.0]))
            for u in range(8):
                if rng.random() < 0.8:
                    a.add_usage(
                        f"u{u}", rng.choice([0.0, 5e-10, 1e-9, rng.uniform(0.0, 1e5)])
                    )
            b = copy.deepcopy(a)
            now = rng.uniform(0.0, 3000.0)
            a.roll(now)
            self.scalar_roll(b, now)
            assert a.window_start == b.window_start
            assert a._usage == b._usage
            # dict iteration order feeds the sequential total_usage sum, so
            # insertion order must survive the vectorized roll too
            assert list(a._usage) == list(b._usage)
            assert a.total_usage == b.total_usage

    def test_roll_without_users_still_advances_window(self):
        fs = FairshareTracker(100.0, 0.5)
        fs.roll(250.0)
        assert fs.window_start == 200.0


class TestExtendedFactors:
    def test_xfactor_boosts_short_waiting_jobs(self):
        prio, _ = make_prioritizer(queue_time=0.0, expansion_factor=1.0)
        short = make_job(submit=0.0, walltime=10.0)
        long = make_job(submit=0.0, walltime=10_000.0)
        # both waited 100s; XFactor = (100+10)/10 = 11 vs ~1.01
        ordered = prio.order([long, short], now=100.0)
        assert ordered[0] is short

    def test_credential_weights(self):
        prio, _ = make_prioritizer(
            queue_time=0.0,
            credential=1.0,
            user_priorities={"vip": 100.0, "regular": 0.0},
        )
        vip = make_job(submit=0.0, user="vip")
        regular = make_job(submit=0.0, user="regular")
        assert prio.order([regular, vip], now=0.0)[0] is vip

    def test_unknown_user_gets_zero_credential(self):
        prio, _ = make_prioritizer(queue_time=0.0, credential=1.0,
                                   user_priorities={"vip": 100.0})
        vip = make_job(submit=0.0, user="vip")
        nobody = make_job(submit=0.0, user="nobody")
        assert prio.order([nobody, vip], now=0.0)[0] is vip

    def test_factors_combine(self):
        prio, _ = make_prioritizer(queue_time=1.0, credential=1.0,
                                   user_priorities={"vip": 5.0})
        vip_new = make_job(submit=100.0, user="vip")
        old = make_job(submit=0.0, user="other")
        # old has 100s queue time > vip's 0 + 5 credential
        assert prio.order([vip_new, old], now=100.0)[0] is old
