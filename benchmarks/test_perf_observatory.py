"""Performance-observatory benchmarks: self-profile tree and bounded memory.

Two artifacts for the bench snapshot: the phase profiler's own view of
where a Dyn-HP run spends its wall-clock (the *self-profile tree*, embedded
verbatim in ``BENCH_*.json`` so ``bench-trend`` can watch phase shares
drift across PRs), and the bounded-memory contract of the windowed
aggregation path — a 100k-job synthetic replay must hold O(windows)
frames, never O(jobs).
"""

import pytest

from benchmarks.conftest import record_bench, register_report
from repro.experiments.configs import configuration
from repro.experiments.runner import run_esp_configuration
from repro.maui.config import MauiConfig
from repro.obs import Telemetry
from repro.obs.console import render_phase_tree
from repro.obs.windows import WindowedMetrics
from repro.system import BatchSystem
from repro.workloads.random_workload import make_random_workload

_DYN_HP = configuration("Dyn-HP")


@pytest.mark.benchmark(group="perf")
def test_profiled_run_phase_tree(benchmark):
    """One profiled Dyn-HP run; the phase tree goes into the snapshot."""

    def run():
        telemetry = Telemetry(sample_interval=None, profiling=True, windows=600.0)
        run_esp_configuration(_DYN_HP, seed=2014, telemetry=telemetry)
        return telemetry

    telemetry = benchmark.pedantic(run, rounds=3, iterations=1)
    prof = telemetry.profiler
    assert prof.depth == 0
    coverage = prof.child_coverage(("engine_dispatch", "sched_iteration"))
    assert coverage >= 0.9  # acceptance: phases tile the iteration within 10%
    record_bench(
        "perf",
        "phase_profile",
        wall_seconds=benchmark.stats.stats.mean,
        phases_recorded=prof.total_phase_count(),
        sched_child_coverage=coverage,
        tree=prof.tree(),
    )
    register_report(
        "Phase profile — Dyn-HP ESP run (where iterations spend wall-clock)",
        render_phase_tree(prof.tree()),
    )


@pytest.mark.benchmark(group="perf")
def test_windowed_fold_throughput_100k(benchmark):
    """Fold a 100k-job synthetic stream; frames stay O(active windows)."""
    jobs = 100_000
    interarrival, runtime, width = 30.0, 600.0, 3600.0

    class _Fake:
        __slots__ = ("job_id", "submit_time", "start_time", "end_time",
                     "state", "is_evolving", "dyn_granted")

        class _State:
            value = "completed"

        def __init__(self, submit):
            self.job_id = "synthetic"
            self.submit_time = submit
            self.start_time = submit + 30.0
            self.end_time = submit + 30.0 + runtime
            self.state = self._State()
            self.is_evolving = False
            self.dyn_granted = 0

    def fold_all():
        w = WindowedMetrics(width, total_cores=512)
        for i in range(jobs):
            w.fold_job(_Fake(i * interarrival))
        return w

    w = benchmark.pedantic(fold_all, rounds=3, iterations=1)
    assert w.jobs_finished == jobs
    span_windows = int(jobs * interarrival / width) + 2
    assert len(w.frames) <= span_windows  # bounded: O(windows), not O(jobs)
    record_bench(
        "perf",
        "windowed_fold_100k",
        wall_seconds=benchmark.stats.stats.mean,
        jobs=jobs,
        jobs_per_second=jobs / benchmark.stats.stats.mean,
        frames_materialised=len(w.frames),
        frames_bound=span_windows,
    )


def test_fold_and_discard_bounds_server_index():
    """A fold-and-discard replay keeps the server's job index near-empty."""
    telemetry = Telemetry(
        sample_interval=None, windows=3600.0, fold_and_discard=True
    )
    system = BatchSystem(4, 8, MauiConfig(), telemetry=telemetry)
    num_jobs = 2_000
    make_random_workload(
        num_jobs, system.cluster.total_cores, seed=9, mean_interarrival=20.0
    ).submit_to(system)
    system.run(max_events=5_000_000)
    server = system.server
    assert server.jobs_discarded > 0
    assert telemetry.windows.jobs_finished == server.jobs_discarded + len(
        [j for j in server.jobs.values() if j.end_time is not None]
    )
    record_bench(
        "perf",
        "fold_and_discard",
        jobs_submitted=num_jobs,
        jobs_discarded=server.jobs_discarded,
        jobs_retained=len(server.jobs),
        frames_materialised=len(telemetry.windows.frames),
    )
    # discarded jobs dominate: the index holds only the undrained tail
    assert len(server.jobs) < num_jobs / 4
