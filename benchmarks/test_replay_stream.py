"""Streaming 100k-job trace replay — the sharding proof at scale.

A seeded synthetic SWF trace (~0.7 offered load on a 32-node, 256-core
machine) is *streamed* through :func:`repro.workloads.from_swf` — the
chunked file-reading path, not a pre-materialised string — converted 5 %
evolving via :func:`repro.workloads.evolving_ify`, and replayed through
the full batch system at 1, 2 and 4 scheduler shards with bounded
observability (tumbling telemetry windows with ``fold_and_discard``, a
ring-bounded trace), so memory stays flat across 100k jobs.

Each replay records set-up seconds (``from_swf`` through ``submit_to``),
wall-clock, engine events/s, and the scheduler-only
per-iteration cost (the class method is wrapped with a perf counter) into
the ``replay`` bench group.  The headline claim: at 2+ shards the
per-iteration scheduler cost stays under the 330 µs single-matrix
deep-queue baseline of BENCH_PR7.  Wall-clock numbers carry the usual
``cpu_count`` affinity annotations — they are meaningless without them.
"""

import io
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import record_bench, usable_cpu_count
from repro.maui.config import MauiConfig
from repro.maui.scheduler import MauiScheduler
from repro.obs import Telemetry
from repro.system import BatchSystem
from repro.workloads import evolving_ify, from_swf

NUM_JOBS = 100_000
NUM_NODES = 32
CORES_PER_NODE = 8
SEED = 2014


def _synthetic_swf(num_jobs: int, seed: int, *, load: float = 0.7) -> str:
    """A seeded SWF trace at the target offered load.

    Log-uniform sizes (1–64 cores) and runtimes (5 min – 2 h), exponential
    arrivals with the rate chosen so mean offered work equals ``load`` of
    the machine — the shape of production archive traces, deterministic in
    ``seed``.
    """
    rng = np.random.default_rng(seed)
    sizes = np.exp(rng.uniform(np.log(1), np.log(64), num_jobs)).round().astype(int)
    sizes = np.clip(sizes, 1, 64)
    runtimes = (
        np.exp(rng.uniform(np.log(300), np.log(7200), num_jobs)).round().astype(int)
    )
    cores = NUM_NODES * CORES_PER_NODE
    rate = load * cores / (float(sizes.mean()) * float(runtimes.mean()))
    arrivals = np.cumsum(rng.exponential(1.0 / rate, num_jobs)).round().astype(int)
    users = rng.integers(1, 33, num_jobs)
    lines = [
        f"{i + 1} {arrivals[i]} -1 {runtimes[i]} {sizes[i]} -1 -1 "
        f"{sizes[i]} {int(runtimes[i] * 1.2)} -1 1 {users[i]} {users[i]} "
        "-1 -1 -1 -1 -1"
        for i in range(num_jobs)
    ]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def replay_workload():
    """The evolving workload and the seconds ``from_swf`` +
    ``evolving_ify`` took to build it."""
    text = _synthetic_swf(NUM_JOBS, SEED)
    t0 = time.perf_counter()
    workload = from_swf(io.StringIO(text), chunk_size=1 << 14)
    assert len(workload) == NUM_JOBS
    workload = evolving_ify(workload, 0.05, seed=7)
    return workload, time.perf_counter() - t0


def _submit(replay_workload, system) -> float:
    """Submit the workload; return the set-up seconds, ``from_swf``
    through ``submit_to``."""
    workload, build_seconds = replay_workload
    t0 = time.perf_counter()
    workload.submit_to(system)
    return build_seconds + time.perf_counter() - t0


@pytest.mark.slow
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_swf_replay_streaming(replay_workload, shards):
    config = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=shards
    )
    telemetry = Telemetry(
        sample_interval=None, windows=3600.0, fold_and_discard=True
    )

    sched_state = {"calls": 0, "seconds": 0.0}
    original = MauiScheduler.iteration

    def timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            sched_state["calls"] += 1
            sched_state["seconds"] += time.perf_counter() - t0

    MauiScheduler.iteration = timed
    try:
        system = BatchSystem(
            NUM_NODES,
            CORES_PER_NODE,
            config,
            telemetry=telemetry,
            trace_maxlen=10_000,
        )
        setup = _submit(replay_workload, system)
        t0 = time.perf_counter()
        events = system.run(max_events=100_000_000)
        wall = time.perf_counter() - t0
    finally:
        MauiScheduler.iteration = original

    # fold_and_discard drops Job objects as they complete (that is the
    # bounded-memory point) — totals come from the streaming aggregates
    windows = telemetry.windows
    assert windows.jobs_completed == NUM_JOBS
    assert windows.satisfied_dyn_jobs > 0
    stats = system.scheduler.stats
    iterations = stats["iterations"]
    per_iteration = sched_state["seconds"] / max(1, sched_state["calls"])
    # the acceptance bar: sharded planning beats the 330 µs single-matrix
    # deep-queue iteration of BENCH_PR7
    if shards >= 2:
        assert per_iteration < 330e-6
    record_bench(
        "replay",
        f"swf_replay_{NUM_JOBS // 1000}k_jobs_shards{shards}",
        setup_seconds=setup,
        wall_seconds=wall,
        events=events,
        events_per_second=events / wall,
        iterations=iterations,
        reservations_created=stats["reservations_created"],
        sched_seconds=sched_state["seconds"],
        sched_iteration_seconds=per_iteration,
        shard_merges=stats["shard_merges"],
        shard_passes_skipped=stats["shard_passes_skipped"],
        satisfied_dyn_jobs=windows.satisfied_dyn_jobs,
        shards=shards,
        cpu_count=usable_cpu_count(),
        cpu_count_installed=os.cpu_count(),
    )


@pytest.mark.slow
def test_swf_replay_fairness_slo(replay_workload):
    """Fairness + SLO at 100k jobs under fold-and-discard memory bounds.

    The observatory must produce per-account share series and grouped
    wait/stretch distributions while holding O(accounts + max_points)
    state — no per-job retention — and the SLO engine must evaluate every
    materialised window.
    """
    telemetry = Telemetry(
        sample_interval=None,
        windows=3600.0,
        fold_and_discard=True,
        fairness=True,
        slo=["p99_wait < 4h", "jain >= 0.5", "share_error < 0.2"],
    )
    system = BatchSystem(
        NUM_NODES,
        CORES_PER_NODE,
        MauiConfig(
            reservation_depth=5, reservation_delay_depth=5, scheduler_shards=2
        ),
        telemetry=telemetry,
        trace_maxlen=10_000,
    )
    setup = _submit(replay_workload, system)
    t0 = time.perf_counter()
    events = system.run(max_events=100_000_000)
    wall = time.perf_counter() - t0

    windows = telemetry.windows
    assert windows.jobs_completed == NUM_JOBS
    fair = telemetry.fairness
    # per-account series exist for every SWF user, at bounded length
    assert len(fair.principals) == 32
    assert fair.samples and len(fair.samples) < fair.max_points
    assert set(fair.latest["shares"]) == set(fair.principals)
    # the group dimension folded every job without retaining any
    groups = windows.groups
    assert sum(g.jobs for g in groups.values()) == NUM_JOBS
    engine = telemetry.slo
    evaluated = len(engine._evaluated)
    assert evaluated == len(windows.closed) + len(windows._open)
    record_bench(
        "replay",
        f"swf_replay_{NUM_JOBS // 1000}k_jobs_fairness_slo",
        setup_seconds=setup,
        wall_seconds=wall,
        events=events,
        events_per_second=events / wall,
        fairness_samples=len(fair.samples),
        fairness_decimations=fair.decimations,
        accounts=len(fair.principals),
        windows_evaluated=evaluated,
        slo_breaches=len(engine.breaches),
        jain=fair.latest["jain"],
        cpu_count=usable_cpu_count(),
        cpu_count_installed=os.cpu_count(),
    )
