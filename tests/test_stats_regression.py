"""Fairshare usage folded at core changes against the per-pass scan.

``FairshareTracker.hold`` folds a user's held cores into usage whenever a
job's cores change, and reads add the tail since.  The reference below is
the scan it replaced: on every pass, charge each job that held cores its
overlap with the window since the previous pass.  The two sum the same
core-seconds in a different order, so usage agrees to a fixed relative
tolerance, and every scheduling decision must come out identical — also on
a run where usage decides the order of requests and jobs.
"""

import dataclasses

import pytest

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job
from repro.maui.config import MauiConfig, PriorityWeightsConfig
from repro.maui.priority import FairshareTracker
from repro.maui.scheduler import MauiScheduler
from repro.obs import Telemetry
from repro.sim.events import EventKind
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload

#: the tolerance between the two summation orders, fixed here once
USAGE_REL = 1e-12


def _scan_update_statistics(self, now):
    """The per-job, per-pass scan over every job the server ever saw."""
    last = getattr(self, "_scan_last", self.fairshare.window_start)
    if now > last:
        for job in self.server.jobs.values():
            if job.start_time is None or job.allocation is None:
                continue
            seg_start = max(last, job.start_time)
            seg_end = now if job.end_time is None else min(now, job.end_time)
            if seg_end > seg_start:
                self.fairshare.add_usage(
                    job.user, job.allocation.total_cores * (seg_end - seg_start)
                )
    self._scan_last = now
    self.fairshare.roll(now)
    if self.dfs.roll(now):
        self.trace.record(
            now, EventKind.DFS_INTERVAL_ROLL, interval_start=self.dfs.interval_start
        )


def _run_dynamic_esp(config: MauiConfig | None = None, telemetry=None) -> BatchSystem:
    system = BatchSystem(
        15,
        8,
        config or MauiConfig(reservation_depth=5, reservation_delay_depth=5),
        telemetry=telemetry,
    )
    make_esp_workload(120, dynamic=True, seed=2014).submit_to(system)
    system.run(max_events=5_000_000)
    return system


def _with_scan(monkeypatch, config: MauiConfig | None = None) -> BatchSystem:
    with monkeypatch.context() as patch:
        patch.setattr(MauiScheduler, "_update_statistics", _scan_update_statistics)
        patch.setattr(FairshareTracker, "hold", lambda self, job, cores: None)
        return _run_dynamic_esp(config)


def _assert_same_run(current: BatchSystem, scan: BatchSystem) -> None:
    usage, reference = current.scheduler.fairshare._usage, scan.scheduler.fairshare._usage
    assert sorted(usage) == sorted(reference)
    for user, value in reference.items():
        assert usage[user] == pytest.approx(value, rel=USAGE_REL), user
    # every decision counter; wall-clock ``*_seconds`` aside
    decisions = {
        k: v for k, v in current.scheduler.stats.items() if not k.endswith("_seconds")
    }
    assert decisions == {k: scan.scheduler.stats[k] for k in decisions}
    # job by job; ids/seqs come from a process-global counter
    strip = ("job_id", "seq")
    mc, ms = current.metrics(), scan.metrics()
    for a, b in zip(mc.records, ms.records, strict=True):
        da = {k: v for k, v in dataclasses.asdict(a).items() if k not in strip}
        db = {k: v for k, v in dataclasses.asdict(b).items() if k not in strip}
        assert da == db


def test_active_set_accounting_matches_legacy_scan(monkeypatch):
    _assert_same_run(_run_dynamic_esp(), _with_scan(monkeypatch))


def test_usage_ordered_run_matches_scan_job_by_job(monkeypatch):
    """Usage decides: fairshare-weighted priorities and fairshare-ordered
    dynamic requests."""
    config = MauiConfig(
        reservation_depth=5,
        reservation_delay_depth=5,
        weights=PriorityWeightsConfig(queue_time=1.0, fairshare=1000.0),
        dynamic_request_order="fairshare",
    )
    current = _run_dynamic_esp(config)
    _assert_same_run(current, _with_scan(monkeypatch, config))
    assert current.scheduler.stats["dyn_granted"] > 0


def test_drained_jobs_are_charged_exactly_once():
    """Every job's cores are charged once over its run; the drain only
    hands finished jobs to fold-and-discard, after the pass that saw them."""
    system = _run_dynamic_esp(
        telemetry=Telemetry(sample_interval=None, windows=3600.0, fold_and_discard=True)
    )
    server = system.server
    assert server.drain_finished_for_stats() == []  # the last pass drained all
    assert server.active_count == 0
    assert server.jobs_discarded == 230 and not server.jobs
    # cores x time of every start, grant and exit in the trace
    charged: dict[str, float] = {}
    held: dict[str, tuple[int, float]] = {}
    for event in system.trace:
        if event.kind in (EventKind.JOB_START, EventKind.BACKFILL_START, EventKind.DYN_GRANT):
            cores, since = held.get(event.payload["job_id"], (0, event.time))
            user = event.payload["user"]
            charged[user] = charged.get(user, 0.0) + cores * (event.time - since)
            held[event.payload["job_id"]] = (cores + event.payload["cores"], event.time)
        elif event.kind in (EventKind.JOB_END, EventKind.JOB_ABORT) and event.payload["cores"]:
            cores, since = held.pop(event.payload["job_id"])
            user = event.payload["user"]
            charged[user] = charged.get(user, 0.0) + cores * (event.time - since)
    assert not held
    tracker = system.scheduler.fairshare
    assert sorted(tracker._usage) == sorted(charged)
    for user, value in charged.items():
        assert tracker.usage(user) == pytest.approx(value, rel=USAGE_REL), user


def _usage_system():
    system = BatchSystem(2, 8)
    first = system.submit(
        Job(request=ResourceRequest(cores=4), walltime=200.0, user="u"),
        FixedRuntimeApp(100.0),
    )
    return system, first


def test_usage_read_between_passes_counts_running_cores():
    system, first = _usage_system()
    tracker = system.scheduler.fairshare
    system.run(until=30.0)
    assert first.start_time == 0.0
    # no pass ran since the start: the job's cores count from its start
    assert tracker.usage("u") == pytest.approx(4 * 30.0)
    assert tracker.usage("u") == pytest.approx(4 * 30.0)  # a read folds nothing
    assert tracker.total_usage == pytest.approx(4 * 30.0)
    system.engine.at(
        50.0,
        system.submit,
        Job(request=ResourceRequest(cores=2), walltime=200.0, user="u"),
        FixedRuntimeApp(20.0),
    )
    system.run(until=60.0)  # the second job started at 50 (a pass, a fold)
    assert tracker.usage("u") == pytest.approx(4 * 60.0 + 2 * 10.0)
    system.run()
    assert tracker.usage("u") == pytest.approx(4 * 100.0 + 2 * 20.0)
    assert tracker.usage("u") == tracker.total_usage
