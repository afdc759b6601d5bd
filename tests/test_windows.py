"""Streaming windowed metrics: exact quantiles, window bookkeeping, equivalence.

Three layers of guarantees: window quantiles are exact, numpy's
``"linear"`` quantile to a relative 1e-12 (the two interpolate in a
different order); window frames partition busy / queue-depth integrals
without loss or duplication; and folding every completed job through
:class:`WindowedMetrics` reproduces the retained-job
:class:`WorkloadMetrics` on a real Table II run to 1e-9 — while
``fold_and_discard`` keeps the server's job index from growing at all.
"""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job, JobState
from repro.maui.config import MauiConfig
from repro.obs import Telemetry
from repro.obs.windows import (
    Sample,
    StreamingStat,
    WindowedMetrics,
    read_windows_jsonl,
)
from repro.system import BatchSystem
from repro.workloads.random_workload import make_random_workload


#: numpy interpolates ``a + (b - a) * t`` from the nearer end; same value
#: to within this relative tolerance
REL = 1e-12


def _numpy(xs, p):
    return float(np.quantile(xs, p, method="linear"))


def _sampled(xs, p):
    """``p`` quantile of ``xs`` fed one by one through a :class:`Sample`."""
    sample = Sample()
    for x in xs:
        sample.add(float(x))
    return sample, sample.quantiles((p,))[p]


class TestP2Quantile:
    """Exact quantiles where the P² sketch used to estimate them."""

    def test_exact_below_five_samples(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            for p in (0.5, 0.9):
                xs = rng.uniform(0, 100, n)
                _, value = _sampled(xs, p)
                assert value == pytest.approx(_numpy(xs, p), rel=REL), (n, p)

    def test_empty_is_nan(self):
        assert math.isnan(Sample().quantiles((0.5,))[0.5])
        assert Sample().as_dict((0.5,))["p50"] is None

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_tracks_gaussian(self, p):
        rng = np.random.default_rng(11)
        xs = rng.normal(100, 15, 5000)
        _, value = _sampled(xs, p)
        assert value == pytest.approx(_numpy(xs, p), rel=REL)

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_tracks_heavy_tail(self, p):
        rng = np.random.default_rng(12)
        xs = rng.exponential(300, 5000)
        sample, value = _sampled(xs, p)
        assert value == pytest.approx(_numpy(xs, p), rel=REL)
        assert sample.count == 5000


class TestStreamingStat:
    def test_mean_min_max(self):
        stat = StreamingStat()
        for v in (3.0, 1.0, 2.0):
            stat.add(v)
        assert stat.mean == pytest.approx(2.0)
        d = stat.as_dict()
        assert (d["min"], d["max"], d["count"]) == (1.0, 3.0, 3)


def _fake_job(submit, start, end, *, state="completed", evolving=False, granted=0):
    return SimpleNamespace(
        job_id="fake",
        user="u",
        submit_time=submit,
        start_time=start,
        end_time=end,
        state=SimpleNamespace(value=state),
        is_evolving=evolving,
        dyn_granted=granted,
    )


class TestWindowBookkeeping:
    def test_busy_integral_split_across_windows(self):
        w = WindowedMetrics(10.0, total_cores=8)
        w.reset_busy(0.0, 4)
        w.on_busy_change(25.0, 0)
        frames = {f.index: f for f in w.frames}
        assert frames[0].busy_core_seconds == pytest.approx(40.0)
        assert frames[1].busy_core_seconds == pytest.approx(40.0)
        assert frames[2].busy_core_seconds == pytest.approx(20.0)
        assert w.busy_core_seconds == pytest.approx(100.0)

    def test_depth_max_starts_at_the_depth_in_force(self):
        # depth 3 from t=0 until t=35: windows 1-3 opened with 3 queued
        w = WindowedMetrics(10.0)
        w.observe_queue_depth(0.0, 3)
        w.observe_queue_depth(35.0, 0)
        frames = {f.index: f.to_dict(None)["queue_depth"] for f in w.frames}
        assert [frames[k]["max"] for k in range(4)] == [3, 3, 3, 3]
        assert [frames[k]["time_mean"] for k in range(4)] == [3.0, 3.0, 3.0, 1.5]

    def test_quiet_window_closes_with_the_depth_in_force(self):
        # no depth change for three windows: a closing frame accrues the
        # depth still in force, and one opened by a fold starts at it
        w = WindowedMetrics(10.0)
        w.reset_busy(0.0, 0)
        w.observe_queue_depth(0.0, 2)
        w.fold_job(_fake_job(0.0, 1.0, 25.0))
        w.on_busy_change(40.0, 0)
        closed = {f.index: f.to_dict(None)["queue_depth"] for f in w.closed}
        assert sorted(closed) == [0, 1, 2, 3]
        assert all(d == {"time_mean": 2.0, "max": 2} for d in closed.values())

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5])
    def test_quantiles_must_lie_in_the_open_unit_interval(self, q):
        with pytest.raises(ValueError, match="quantile must be in"):
            WindowedMetrics(10.0, quantiles=(0.5, q))

    def test_closed_frame_keeps_quantiles_not_values(self):
        w = WindowedMetrics(10.0)
        w.reset_busy(0.0, 0)
        for wait in (1.0, 2.0, 3.0, 4.0):
            w.fold_job(_fake_job(0.0, wait, wait + 1.0))
        w.on_busy_change(20.0, 0)
        (frame,) = w.closed
        assert len(frame.wait.values) == 0
        assert frame.to_dict(None)["wait"]["p50"] == pytest.approx(2.5)

    def test_queue_depth_time_mean_and_max(self):
        w = WindowedMetrics(10.0)
        w.observe_queue_depth(0.0, 2)
        w.observe_queue_depth(5.0, 6)
        w.observe_queue_depth(10.0, 0)
        frame = w.frames[0]
        assert frame.depth_max == 6
        # 2 jobs for 5 s + 6 jobs for 5 s over a 10 s window
        assert frame.to_dict(None)["queue_depth"]["time_mean"] == pytest.approx(4.0)

    def test_tumbling_fold_lands_in_end_window(self):
        w = WindowedMetrics(10.0)
        w.fold_job(_fake_job(0.0, 2.0, 12.0))
        indexes = [f.index for f in w.frames if f.finished]
        assert indexes == [1]
        assert w.jobs_finished == 1

    def test_sliding_fold_lands_in_every_covering_window(self):
        w = WindowedMetrics(10.0, stride=5.0)
        w.fold_job(_fake_job(0.0, 2.0, 12.0))
        indexes = sorted(f.index for f in w.frames if f.finished)
        # t=12 is inside [5,15) and [10,20)
        assert indexes == [1, 2]

    def test_fold_without_end_time_rejected(self):
        w = WindowedMetrics(10.0)
        with pytest.raises(ValueError):
            w.fold_job(_fake_job(0.0, 1.0, None))

    def test_never_started_job_counts_finished_only(self):
        w = WindowedMetrics(10.0)
        w.fold_job(_fake_job(0.0, None, 5.0, state="aborted"))
        assert w.jobs_finished == 1
        assert w.wait.count == 0

    def test_slowdown_uses_tau_clamp(self):
        w = WindowedMetrics(100.0, slowdown_tau=10.0)
        # run of 2 s, wait of 8 s: (8+2)/max(2,10) = 1.0 after the clamp
        w.fold_job(_fake_job(0.0, 8.0, 10.0))
        assert w.mean_bounded_slowdown() == pytest.approx(1.0)

    def test_closed_frames_never_rematerialise(self):
        # a lagging busy span must not re-open (and double-count) a window
        # that job folding already advanced past
        w = WindowedMetrics(10.0, total_cores=4)
        w.reset_busy(0.0, 2)
        w.fold_job(_fake_job(0.0, 1.0, 35.0))
        w.on_busy_change(40.0, 0)
        indexes = [f.index for f in w.frames]
        assert indexes == sorted(set(indexes))
        assert w.busy_core_seconds == pytest.approx(80.0)

    def test_jsonl_round_trip(self):
        w = WindowedMetrics(10.0, total_cores=8)
        w.reset_busy(0.0, 4)
        w.fold_job(_fake_job(0.0, 2.0, 12.0))
        w.on_busy_change(15.0, 0)
        buf = io.StringIO()
        lines = w.export_jsonl(buf)
        buf.seek(0)
        dump = read_windows_jsonl(buf)
        assert dump["meta"]["schema"] == "repro-windows/1"
        assert dump["meta"]["width"] == 10.0
        assert dump["totals"]["jobs_finished"] == 1
        assert len(dump["windows"]) == lines - 2
        assert dump["windows"][0]["busy_core_seconds"] == pytest.approx(40.0)


def _close(actual, expected):
    """PR acceptance tolerance: 1e-9 relative (absolute below 1.0)."""
    return abs(actual - expected) <= 1e-9 * max(1.0, abs(expected))


class TestEquivalenceOnTable2:
    """Windowed aggregates must match retained-job metrics on Dyn-HP."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.experiments.configs import all_configurations
        from repro.experiments.runner import run_esp_configuration

        configuration = next(
            c for c in all_configurations() if c.name == "Dyn-HP"
        )
        telemetry = Telemetry(windows=600.0)
        result = run_esp_configuration(configuration, telemetry=telemetry)
        return result.metrics, telemetry.windows

    def test_means_match_to_1e9(self, run):
        metrics, windows = run
        assert _close(windows.mean_wait, metrics.mean_wait)
        assert _close(windows.mean_turnaround, metrics.mean_turnaround)
        assert _close(
            windows.mean_bounded_slowdown(), metrics.mean_bounded_slowdown()
        )

    def test_utilization_and_span_match(self, run):
        metrics, windows = run
        assert _close(windows.utilization, float(metrics.utilization))
        assert windows.workload_time == metrics.workload_time
        assert windows.first_submit == metrics.first_submit
        assert windows.last_end == metrics.last_end

    def test_job_counts_match(self, run):
        metrics, windows = run
        assert windows.jobs_completed == metrics.completed_jobs
        assert windows.evolving_jobs == metrics.evolving_jobs
        assert windows.satisfied_dyn_jobs == metrics.satisfied_dyn_jobs


def _run_random(telemetry, *, num_jobs=120, seed=5):
    system = BatchSystem(4, 8, MauiConfig(), telemetry=telemetry)
    make_random_workload(
        num_jobs, system.cluster.total_cores, seed=seed, mean_interarrival=30.0
    ).submit_to(system)
    system.run(max_events=1_000_000)
    return system


class TestFoldAndDiscard:
    def test_requires_windows(self):
        with pytest.raises(ValueError):
            Telemetry(fold_and_discard=True)

    def test_discards_jobs_but_keeps_aggregates(self):
        retained_tel = Telemetry(windows=3600.0)
        retained = _run_random(retained_tel)
        discard_tel = Telemetry(windows=3600.0, fold_and_discard=True)
        discarding = _run_random(discard_tel)

        assert discarding.server.jobs_discarded > 0
        assert len(discarding.server.jobs) < len(retained.server.jobs)
        # the streaming aggregates are unaffected by discarding
        assert (
            discard_tel.windows.totals_dict() == retained_tel.windows.totals_dict()
        )
        # and still match the retained run's collector
        metrics = retained.metrics()
        assert _close(discard_tel.windows.mean_wait, metrics.mean_wait)
        assert _close(discard_tel.windows.utilization, float(metrics.utilization))

    def test_retained_reporting_refuses_after_discard(self):
        system = _run_random(Telemetry(windows=3600.0, fold_and_discard=True))
        assert system.server.jobs_discarded > 0
        with pytest.raises(RuntimeError, match="folded and discarded"):
            system.metrics()

    def test_afterok_resolves_against_discarded_target(self):
        telemetry = Telemetry(windows=600.0, fold_and_discard=True)
        system = BatchSystem(2, 8, MauiConfig(), telemetry=telemetry)
        first = system.submit(
            Job(request=ResourceRequest(cores=4), walltime=200.0, user="u"),
            FixedRuntimeApp(100.0),
        )
        system.run()
        assert first.job_id not in system.server.jobs  # discarded
        second = system.submit(
            Job(
                request=ResourceRequest(cores=4),
                walltime=100.0,
                user="u",
                depends_on=first.job_id,
            ),
            FixedRuntimeApp(50.0),
        )
        system.run()
        assert second.state is JobState.COMPLETED

    def test_afterok_on_discarded_aborted_target_fails(self):
        telemetry = Telemetry(windows=600.0, fold_and_discard=True)
        system = BatchSystem(2, 8, MauiConfig(), telemetry=telemetry)
        # runtime exceeds walltime: killed at the limit, terminal ABORTED
        first = system.submit(
            Job(request=ResourceRequest(cores=4), walltime=50.0, user="u"),
            FixedRuntimeApp(100.0),
        )
        system.run()
        assert first.job_id not in system.server.jobs
        second = system.submit(
            Job(
                request=ResourceRequest(cores=4),
                walltime=100.0,
                user="u",
                depends_on=first.job_id,
            ),
            FixedRuntimeApp(50.0),
        )
        system.run()
        assert second.state is JobState.ABORTED
        assert second.start_time is None


class TestBoundedMemory:
    def test_long_replay_holds_o_windows_not_o_jobs(self):
        # synthetic 5k-job stream folded straight through WindowedMetrics:
        # materialised frames track the active span, not the job count
        w = WindowedMetrics(3600.0, total_cores=64)
        jobs = 5000
        for i in range(jobs):
            submit = i * 30.0
            w.fold_job(_fake_job(submit, submit + 60.0, submit + 600.0))
        span_windows = int(jobs * 30.0 / 3600.0) + 2
        assert len(w.frames) <= span_windows
        assert w.jobs_finished == jobs

    def test_server_index_stays_bounded_under_discard(self):
        system = _run_random(
            Telemetry(windows=3600.0, fold_and_discard=True), num_jobs=150
        )
        server = system.server
        # every finished job left the index; only the compact state map grows
        assert server.jobs_discarded + len(server.jobs) >= 150
        assert len(server.jobs) < 150 / 3
        assert len(server._discarded_states) == server.jobs_discarded


def _user_job(job_id, user, submit, start, end, *, account="default",
              state="completed"):
    return SimpleNamespace(
        job_id=job_id,
        user=user,
        account=account,
        submit_time=submit,
        start_time=start,
        end_time=end,
        state=SimpleNamespace(value=state),
        is_evolving=False,
        dyn_granted=0,
    )


class TestGroupDimension:
    def test_group_by_attribute_name(self):
        w = WindowedMetrics(10.0, group_by="user")
        w.fold_job(_user_job("j1", "alice", 0.0, 2.0, 4.0))
        w.fold_job(_user_job("j2", "alice", 0.0, 4.0, 8.0))
        w.fold_job(_user_job("j3", "bob", 0.0, 1.0, 2.0))
        assert sorted(w.groups) == ["alice", "bob"]
        assert w.groups["alice"].jobs == 2
        assert w.groups["alice"].wait.mean == pytest.approx(3.0)

    def test_group_by_callable_and_stretch(self):
        from repro.obs.fairness import principal_of

        w = WindowedMetrics(10.0, group_by=principal_of)
        # account set -> grouped under the account, not the user
        w.fold_job(_user_job("j1", "alice", 0.0, 6.0, 8.0, account="phys"))
        (group,) = w.groups.values()
        assert group.key == "phys"
        # stretch = (wait + run) / max(run, 1): (6 + 2) / 2 = 4
        assert group.stretch.mean == pytest.approx(4.0)

    def test_ungrouped_by_default(self):
        w = WindowedMetrics(10.0)
        assert not w.grouped
        w.fold_job(_user_job("j1", "alice", 0.0, 2.0, 4.0))
        assert w.groups == {}

    def test_incomplete_jobs_counted_but_not_completed(self):
        w = WindowedMetrics(10.0, group_by="user")
        w.fold_job(_user_job("j1", "alice", 0.0, 2.0, 4.0, state="failed"))
        assert w.groups["alice"].jobs == 1
        assert w.groups["alice"].completed == 0

    def test_group_lines_export_and_read_back(self):
        w = WindowedMetrics(10.0, total_cores=8, group_by="user")
        w.reset_busy(0.0, 0)
        for i in range(6):
            w.fold_job(_user_job(f"j{i}", f"u{i % 2}", 0.0, float(i), float(i + 1)))
        buf = io.StringIO()
        w.export_jsonl(buf)
        buf.seek(0)
        dump = read_windows_jsonl(buf)
        assert [g["key"] for g in dump["groups"]] == ["u0", "u1"]
        assert all(g["jobs"] == 3 for g in dump["groups"])
        assert dump["groups"][0]["stretch"]["mean"] == pytest.approx(
            w.groups["u0"].stretch.mean
        )


class TestWorstWaitAnchor:
    def test_tracks_per_window_worst(self):
        w = WindowedMetrics(10.0)
        w.fold_job(_user_job("j1", "alice", 0.0, 2.0, 3.0))
        w.fold_job(_user_job("j2", "bob", 1.0, 8.0, 9.0))
        w.fold_job(_user_job("j3", "carol", 11.0, 12.0, 13.0))
        frames = {f.index: f for f in w.frames}
        assert frames[0].worst_wait == pytest.approx(7.0)
        assert frames[0].worst_wait_job == "j2"
        assert frames[0].worst_wait_user == "bob"
        assert frames[0].worst_wait_submit == 1.0
        assert frames[1].worst_wait_job == "j3"

    def test_empty_frame_has_no_anchor(self):
        w = WindowedMetrics(10.0)
        w.observe_queue_depth(5.0, 3)
        (frame,) = w.frames
        assert frame.worst_wait_job is None
        assert frame.worst_wait == -math.inf


class TestP2Adversarial:
    """Distributions that stressed the P² marker update rule."""

    def test_constant_stream_is_exact(self):
        _, value = _sampled([42.0] * 10_000, 0.99)
        assert value == 42.0

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_two_point_distribution(self, p):
        # 90 % zeros / 10 % thousands: below 0.9 the quantile is 0, above
        # it 1000 — where P² interpolated between markers
        rng = np.random.default_rng(21)
        xs = np.where(rng.uniform(size=20_000) < 0.9, 0.0, 1000.0)
        _, value = _sampled(xs, p)
        assert value == pytest.approx(_numpy(xs, p), rel=REL)
        assert value == (0.0 if p < 0.9 else 1000.0)

    @pytest.mark.parametrize("p", [0.9, 0.99])
    def test_pareto_tail(self, p):
        # heavy-tailed (infinite-variance) waits
        rng = np.random.default_rng(22)
        xs = rng.pareto(1.5, 50_000) * 100.0
        _, value = _sampled(xs, p)
        assert value == pytest.approx(_numpy(xs, p), rel=REL)

    def test_sorted_ascending_stream(self):
        # monotone input, the classic P² worst case: median of 0..9999
        _, value = _sampled(range(10_000), 0.5)
        assert value == 4999.5
