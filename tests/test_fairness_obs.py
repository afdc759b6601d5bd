"""Fairness observatory: principals, Jain's index, sampling, exports.

Unit layer exercises the observatory against fake jobs and trackers;
the end-to-end layer proves the acceptance contract — an instrumented
run is bit-identical to a disabled one on ``(submit, start, end,
state)`` and the per-account rows reconcile with the scheduler's own
fairshare charges.
"""

import io
from types import SimpleNamespace

import pytest

from repro.maui.config import MauiConfig
from repro.obs import FairnessObservatory, Telemetry, jain_index, principal_of
from repro.obs.registry import MetricsRegistry
from repro.obs.windows import WindowedMetrics
from repro.system import BatchSystem
from repro.workloads.random_workload import make_random_workload


def _job(user, account="default"):
    return SimpleNamespace(user=user, account=account)


class _Tracker:
    """Stand-in for FairshareTracker: fixed decayed usage per user."""

    def __init__(self, usage):
        self._usage = usage

    def usage(self, user):
        return self._usage.get(user, 0.0)


class TestPrincipal:
    def test_account_wins_when_set(self):
        assert principal_of(_job("alice", "physics")) == "physics"

    def test_default_account_falls_back_to_user(self):
        assert principal_of(_job("alice")) == "alice"
        assert principal_of(_job("alice", "")) == "alice"


class TestJainIndex:
    def test_empty_and_all_zero_are_vacuously_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_equal_shares_are_perfectly_fair(self):
        assert jain_index([0.25] * 4) == pytest.approx(1.0)

    def test_one_hot_is_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


class TestObservatory:
    def test_accrue_groups_users_by_account(self):
        fair = FairnessObservatory()
        fair.accrue(_job("alice", "physics"), 100.0)
        fair.accrue(_job("bob", "physics"), 50.0)
        fair.accrue(_job("carol"), 25.0)
        assert fair.core_seconds == {"physics": 150.0, "carol": 25.0}
        assert fair.principals == ["carol", "physics"]
        assert fair.accruals == 3

    def test_targets_normalize_explicit_weights(self):
        fair = FairnessObservatory(share_targets={"physics": 3.0})
        fair.accrue(_job("alice", "physics"), 1.0)
        fair.accrue(_job("carol"), 1.0)
        assert fair.targets() == {"physics": 0.75, "carol": 0.25}

    def test_sample_is_interval_gated(self):
        fair = FairnessObservatory(sample_interval=100.0)
        fair.accrue(_job("a"), 1.0)
        tracker = _Tracker({"a": 5.0})
        assert fair.sample(0.0, tracker)
        assert not fair.sample(50.0, tracker)
        assert fair.sample(100.0, tracker)
        assert len(fair.samples) == 2

    def test_sample_before_any_accrual_is_noop(self):
        fair = FairnessObservatory()
        assert not fair.sample(0.0, _Tracker({}))
        fair.finalize(10.0)
        assert fair.samples == []

    def test_jain_and_error_from_tracker_shares(self):
        fair = FairnessObservatory()
        fair.accrue(_job("a"), 1.0)
        fair.accrue(_job("b"), 1.0)
        fair.sample(0.0, _Tracker({"a": 3.0, "b": 1.0}))
        latest = fair.latest
        assert latest["shares"] == {"a": 0.75, "b": 0.25}
        # x = (1.5, 0.5): J = (2)^2 / (2 * 2.5) = 0.8
        assert latest["jain"] == pytest.approx(0.8)
        assert latest["max_share_error"] == pytest.approx(0.25)

    def test_decimation_halves_series_and_doubles_stride(self):
        registry = MetricsRegistry()
        fair = FairnessObservatory(sample_interval=1.0, max_points=8, registry=registry)
        fair.accrue(_job("a"), 1.0)
        tracker = _Tracker({"a": 1.0})
        for t in range(8):
            fair.sample(float(t), tracker)
        assert fair.decimations == 1
        assert fair.sample_interval == 2.0
        assert len(fair.samples) == 4
        # the counter still reads every sample taken
        assert registry.value("repro_fairness_samples_total") == 8
        # every other point survives, oldest first
        assert [s["t"] for s in fair.samples] == [0.0, 2.0, 4.0, 6.0]

    def test_memory_stays_bounded_under_many_samples(self):
        fair = FairnessObservatory(sample_interval=1.0, max_points=16)
        fair.accrue(_job("a"), 1.0)
        tracker = _Tracker({"a": 1.0})
        t = 0.0
        for _ in range(10_000):
            fair.sample(t, tracker, force=True)
            t += 1.0
        assert len(fair.samples) < 16

    def test_finalize_forces_trailing_sample(self):
        fair = FairnessObservatory(sample_interval=1000.0)
        fair.accrue(_job("a"), 1.0)
        fair.sample(0.0, _Tracker({"a": 1.0}))
        fair.finalize(10.0)
        assert [s["t"] for s in fair.samples] == [0.0, 10.0]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FairnessObservatory(sample_interval=0.0)
        with pytest.raises(ValueError):
            FairnessObservatory(max_points=1)
        fair = FairnessObservatory(share_targets={"a": 0.0})
        fair.accrue(_job("x", "a"), 1.0)
        with pytest.raises(ValueError):
            fair.targets()

    def test_registry_gauges_track_latest_sample(self):
        registry = MetricsRegistry()
        fair = FairnessObservatory(registry=registry)
        fair.accrue(_job("a"), 1.0)
        fair.accrue(_job("b"), 1.0)
        fair.sample(0.0, _Tracker({"a": 3.0, "b": 1.0}))
        values = {
            (i.name, dict(i.labels).get("account")): i.value
            for i in registry.collect()
        }
        assert values[("repro_fairness_jain_index", None)] == pytest.approx(0.8)
        assert values[("repro_fairness_samples_total", None)] == 1
        assert values[("repro_fairness_share", "a")] == pytest.approx(0.75)
        assert values[("repro_fairness_share_target", "b")] == pytest.approx(0.5)
        # a principal learned after the sample changes no gauge: each reads
        # the sample, and the newcomer has none until it is sampled
        fair.accrue(_job("c"), 1.0)
        assert registry.value(
            "repro_fairness_share_target", {"account": "b"}
        ) == pytest.approx(0.5)
        assert registry.get("repro_fairness_share", {"account": "c"}) is None


class TestAccountRows:
    def _folded_windows(self):
        w = WindowedMetrics(10.0, group_by=principal_of)
        job = SimpleNamespace(
            job_id="job.1",
            user="alice",
            account="default",
            submit_time=0.0,
            start_time=5.0,
            end_time=15.0,
            state=SimpleNamespace(value="completed"),
            is_evolving=False,
            dyn_granted=0,
        )
        w.fold_job(job)
        return w

    def test_rows_merge_shares_and_group_stats(self):
        fair = FairnessObservatory()
        fair.accrue(_job("alice"), 40.0)
        fair.sample(0.0, _Tracker({"alice": 1.0}))
        fair.attach_windows(self._folded_windows())
        (row,) = fair.account_rows()
        assert row["account"] == "alice"
        assert row["core_seconds"] == 40.0
        assert row["share"] == 1.0
        assert row["target"] == 1.0
        assert row["share_error"] == 0.0
        assert row["jobs"] == 1
        assert row["mean_wait"] == pytest.approx(5.0)
        assert row["mean_stretch"] == pytest.approx(1.5)

    def test_export_is_deterministic(self):
        def build():
            fair = FairnessObservatory()
            fair.accrue(_job("b"), 10.0)
            fair.accrue(_job("a", "acct"), 20.0)
            fair.sample(0.0, _Tracker({"a": 2.0, "b": 1.0}))
            buf = io.StringIO()
            fair.export_jsonl(buf)
            return buf.getvalue()

        text = build()
        assert text == build()
        assert '"schema":"repro-fairness/1"' in text
        assert '"kind":"account"' in text
        assert '"kind":"sample"' in text


def _run_random(telemetry, *, num_jobs=80, seed=7):
    system = BatchSystem(4, 8, MauiConfig(), telemetry=telemetry)
    make_random_workload(
        num_jobs, system.cluster.total_cores, seed=seed, mean_interarrival=30.0
    ).submit_to(system)
    system.run(max_events=1_000_000)
    return system


def _outcome(system):
    return [
        (r.submit_time, r.start_time, r.end_time, r.state)
        for r in system.metrics().records
    ]


class TestEndToEnd:
    def test_observatory_does_not_perturb_schedule(self):
        baseline = _outcome(_run_random(None))
        instrumented = _run_random(
            Telemetry(fairness=True, windows=600.0, decision_ledger=True)
        )
        assert _outcome(instrumented) == baseline

    def test_shares_and_charges_reconcile(self):
        system = _run_random(Telemetry(fairness=True, windows=600.0))
        fair = system.telemetry.fairness
        assert fair.accruals > 0
        assert fair.samples, "sampling never fired"
        shares = fair.latest["shares"]
        assert sum(shares.values()) == pytest.approx(1.0)
        # exact charges never exceed what the machine actually ran
        total = sum(fair.core_seconds.values())
        assert 0 < total <= system.telemetry.windows.busy_core_seconds + 1e-6
        rows = fair.account_rows()
        assert [r["account"] for r in rows] == sorted(shares)
        assert all(r["jobs"] > 0 for r in rows)

    def test_charges_are_deterministic_per_seed(self):
        charges = []
        for _ in range(2):
            system = _run_random(Telemetry(fairness=True, windows=600.0))
            charges.append(dict(system.telemetry.fairness.core_seconds))
        assert charges[0] == charges[1]
