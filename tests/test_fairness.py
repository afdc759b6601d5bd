"""Tests for the DFS ledger: policy evaluation, charging, decay."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job
from repro.maui.config import DFSConfig, DFSPolicy, PrincipalLimits
from repro.maui.fairness import _EPSILON, DFSLedger, Victim


def make_job(user="victim", group="vgroup", **kw):
    defaults = dict(request=ResourceRequest(cores=4), walltime=100.0)
    defaults.update(kw)
    job = Job(user=user, group=group, **defaults)
    job.submit_time = 0.0
    return job


def ledger(policy=DFSPolicy.TARGET_DELAY, **kw) -> DFSLedger:
    return DFSLedger(DFSConfig(policy=policy, **kw))


class TestPolicyNone:
    def test_everything_allowed(self):
        led = ledger(DFSPolicy.NONE)
        victims = [Victim(make_job(), 1e9)]
        assert led.evaluate(victims, "evil", 0.0)

    def test_commit_charges_nothing(self):
        led = ledger(DFSPolicy.NONE)
        job = make_job()
        assert led.commit([Victim(job, 500.0)], "evil") == 0.0
        assert job.accrued_delay == 0.0


class TestPermVeto:
    def test_user_perm_denies(self):
        led = ledger(
            DFSPolicy.TARGET_DELAY,
            users={"victim": PrincipalLimits(dyn_delay_perm=False)},
        )
        decision = led.evaluate([Victim(make_job(), 10.0)], "evil", 0.0)
        assert not decision
        assert "DFSDynDelayPerm" in decision.reason

    def test_group_perm_denies(self):
        led = ledger(
            DFSPolicy.SINGLE_JOB_DELAY,
            groups={"vgroup": PrincipalLimits(dyn_delay_perm=False)},
        )
        assert not led.evaluate([Victim(make_job(), 10.0)], "evil", 0.0)

    def test_zero_delay_not_vetoed(self):
        led = ledger(
            DFSPolicy.TARGET_DELAY,
            users={"victim": PrincipalLimits(dyn_delay_perm=False)},
        )
        assert led.evaluate([Victim(make_job(), 0.0)], "evil", 0.0)

    def test_delay_of_exactly_epsilon_not_vetoed(self):
        """A delay no larger than the noise floor is no delay: it cannot
        trip the permission veto."""
        led = ledger(
            DFSPolicy.TARGET_DELAY,
            users={"victim": PrincipalLimits(dyn_delay_perm=False)},
        )
        decision = led.evaluate([Victim(make_job(), _EPSILON)], "evil", 0.0)
        assert decision
        assert decision.reason == "no foreign job delayed"


class TestSameUserExemption:
    def test_own_jobs_do_not_count(self):
        led = ledger(
            DFSPolicy.TARGET_DELAY,
            default_user=PrincipalLimits(target_delay_time=1.0),
        )
        victim = Victim(make_job(user="selfish"), 1000.0)
        assert led.evaluate([victim], "selfish", 0.0)
        led.commit([victim], "selfish")
        assert victim.job.accrued_delay == 0.0

    def test_foreign_jobs_do_count(self):
        led = ledger(
            DFSPolicy.TARGET_DELAY,
            default_user=PrincipalLimits(target_delay_time=1.0),
        )
        assert not led.evaluate([Victim(make_job(user="other"), 1000.0)], "selfish", 0.0)


class TestSingleJobDelay:
    def _led(self, cap):
        return ledger(
            DFSPolicy.SINGLE_JOB_DELAY,
            default_user=PrincipalLimits(single_delay_time=cap),
        )

    def test_within_cap_allowed(self):
        assert self._led(100.0).evaluate([Victim(make_job(), 99.0)], "evil", 0.0)

    def test_beyond_cap_denied(self):
        assert not self._led(100.0).evaluate([Victim(make_job(), 101.0)], "evil", 0.0)

    def test_exactly_the_cap_allowed(self):
        job = make_job()
        job.accrued_delay = 40.0
        assert self._led(100.0).evaluate([Victim(job, 60.0)], "evil", 0.0)

    def test_just_above_the_cap_names_job_and_sum(self):
        job = make_job()
        job.accrued_delay = 40.0
        decision = self._led(100.0).evaluate([Victim(job, 61.0)], "evil", 0.0)
        assert not decision
        assert decision.reason == (
            f"job {job.job_id} single-delay cap exceeded (101s > 100s)"
        )

    def test_accrued_delay_counts(self):
        led = self._led(100.0)
        job = make_job()
        job.accrued_delay = 60.0
        assert not led.evaluate([Victim(job, 50.0)], "evil", 0.0)
        assert led.evaluate([Victim(job, 30.0)], "evil", 0.0)

    def test_most_restrictive_of_user_and_group(self):
        led = ledger(
            DFSPolicy.SINGLE_JOB_DELAY,
            users={"victim": PrincipalLimits(single_delay_time=500.0)},
            groups={"vgroup": PrincipalLimits(single_delay_time=100.0)},
        )
        assert not led.evaluate([Victim(make_job(), 200.0)], "evil", 0.0)
        assert led.evaluate([Victim(make_job(), 50.0)], "evil", 0.0)

    def test_target_not_checked_under_single_policy(self):
        led = ledger(
            DFSPolicy.SINGLE_JOB_DELAY,
            default_user=PrincipalLimits(single_delay_time=1000.0, target_delay_time=1.0),
        )
        assert led.evaluate([Victim(make_job(), 500.0)], "evil", 0.0)


class TestTargetDelay:
    def _led(self, cap, **kw):
        return ledger(
            DFSPolicy.TARGET_DELAY,
            default_user=PrincipalLimits(target_delay_time=cap),
            **kw,
        )

    def test_cumulative_across_grants(self):
        led = self._led(100.0)
        job = make_job()
        v1 = [Victim(job, 60.0)]
        assert led.evaluate(v1, "evil", 0.0)
        led.commit(v1, "evil")
        v2 = [Victim(make_job(), 60.0)]  # same user "victim"
        assert not led.evaluate(v2, "evil", 0.0)

    def test_exactly_the_cap_allowed(self):
        led = self._led(100.0)
        led.commit([Victim(make_job(), 40.0)], "evil")
        assert led.evaluate([Victim(make_job(), 60.0)], "evil", 0.0)

    def test_just_above_the_cap_names_principal_and_sum(self):
        led = self._led(100.0)
        led.commit([Victim(make_job(), 40.0)], "evil")
        decision = led.evaluate([Victim(make_job(), 61.0)], "evil", 0.0)
        assert not decision
        assert decision.reason == (
            "user victim target-delay cap exceeded (101s > 100s per interval)"
        )

    def test_sum_within_single_grant(self):
        led = self._led(100.0)
        victims = [Victim(make_job(), 60.0), Victim(make_job(), 60.0)]
        assert not led.evaluate(victims, "evil", 0.0)

    def test_distinct_users_tracked_separately(self):
        led = self._led(100.0)
        victims = [
            Victim(make_job(user="a", group="ga"), 80.0),
            Victim(make_job(user="b", group="gb"), 80.0),
        ]
        assert led.evaluate(victims, "evil", 0.0)

    def test_group_cap_aggregates_users(self):
        led = ledger(
            DFSPolicy.TARGET_DELAY,
            groups={"vgroup": PrincipalLimits(target_delay_time=100.0)},
        )
        victims = [
            Victim(make_job(user="a"), 60.0),
            Victim(make_job(user="b"), 60.0),
        ]
        # both users are in vgroup: 120 > 100 at group level
        assert not led.evaluate(victims, "evil", 0.0)

    def test_single_not_checked_under_target_policy(self):
        led = ledger(
            DFSPolicy.TARGET_DELAY,
            default_user=PrincipalLimits(target_delay_time=1000.0, single_delay_time=1.0),
        )
        assert led.evaluate([Victim(make_job(), 500.0)], "evil", 0.0)


class TestCommit:
    def test_commit_updates_job_and_ledger(self):
        led = ledger(DFSPolicy.TARGET_DELAY)
        job = make_job()
        total = led.commit([Victim(job, 42.0)], "evil")
        assert total == 42.0
        assert job.accrued_delay == 42.0
        assert led.cumulative_delay("user", "victim") == 42.0
        assert led.cumulative_delay("group", "vgroup") == 0.0  # group unconfigured

    def test_commit_charges_configured_group(self):
        led = ledger(
            DFSPolicy.TARGET_DELAY,
            groups={"vgroup": PrincipalLimits(target_delay_time=1000.0)},
        )
        led.commit([Victim(make_job(), 42.0)], "evil")
        assert led.cumulative_delay("group", "vgroup") == 42.0

    def test_commit_skips_zero_delays(self):
        led = ledger(DFSPolicy.TARGET_DELAY)
        job = make_job()
        led.commit([Victim(job, 0.0)], "evil")
        assert job.accrued_delay == 0.0

    def test_commit_skips_a_delay_of_exactly_epsilon(self):
        led = ledger(DFSPolicy.TARGET_DELAY)
        job = make_job()
        assert led.commit([Victim(job, _EPSILON)], "evil") == 0.0
        assert job.accrued_delay == 0.0
        assert led.snapshot() == {}


class TestDecay:
    def test_roll_applies_decay(self):
        led = DFSLedger(DFSConfig(policy=DFSPolicy.TARGET_DELAY, interval=100.0, decay=0.2))
        led.commit([Victim(make_job(), 3600.0)], "evil")
        rolled = led.roll(100.0)
        assert rolled == 1
        # the paper's example: 3600s decays to 720s
        assert led.cumulative_delay("user", "victim") == pytest.approx(720.0)

    def test_zero_decay_resets(self):
        led = DFSLedger(DFSConfig(policy=DFSPolicy.TARGET_DELAY, interval=100.0, decay=0.0))
        led.commit([Victim(make_job(), 500.0)], "evil")
        led.roll(100.0)
        assert led.cumulative_delay("user", "victim") == 0.0

    def test_multiple_intervals_compound(self):
        led = DFSLedger(DFSConfig(policy=DFSPolicy.TARGET_DELAY, interval=100.0, decay=0.5))
        led.commit([Victim(make_job(), 800.0)], "evil")
        led.roll(350.0)  # three intervals
        assert led.cumulative_delay("user", "victim") == pytest.approx(100.0)
        assert led.interval_start == 300.0

    def test_headroom_after_decay(self):
        # paper: cap 4800, accumulated 3600, decay 0.2 -> 4080 available next
        led = DFSLedger(
            DFSConfig(
                policy=DFSPolicy.TARGET_DELAY,
                interval=100.0,
                decay=0.2,
                default_user=PrincipalLimits(target_delay_time=4800.0),
            )
        )
        led.commit([Victim(make_job(), 3600.0)], "evil")
        led.roll(100.0)
        assert led.evaluate([Victim(make_job(), 4080.0)], "evil", 100.0)
        assert not led.evaluate([Victim(make_job(), 4081.0)], "evil", 100.0)

    def test_decay_to_exactly_epsilon_is_kept(self):
        """The prune drops only what decays *below* the noise floor."""
        led = DFSLedger(DFSConfig(policy=DFSPolicy.TARGET_DELAY, interval=100.0, decay=0.5))
        led.commit([Victim(make_job(), 2 * _EPSILON)], "evil")
        led.roll(100.0)
        assert led.snapshot() == {("user", "victim"): _EPSILON}
        led.roll(200.0)
        assert led.snapshot() == {}

    def test_no_roll_before_boundary(self):
        led = DFSLedger(DFSConfig(policy=DFSPolicy.TARGET_DELAY, interval=100.0))
        assert led.roll(99.9) == 0


class TestVictim:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Victim(make_job(), -1.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=10),
    st.floats(min_value=1.0, max_value=5000.0),
)
def test_property_target_cap_never_exceeded(delays, cap):
    """Grants allowed one at a time never push a user past its cap."""
    led = DFSLedger(
        DFSConfig(
            policy=DFSPolicy.TARGET_DELAY,
            default_user=PrincipalLimits(target_delay_time=cap),
        )
    )
    for delay in delays:
        victims = [Victim(make_job(), delay)]
        if led.evaluate(victims, "evil", 0.0):
            led.commit(victims, "evil")
    assert led.cumulative_delay("user", "victim") <= cap + 1e-6
