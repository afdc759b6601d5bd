"""Simulator kernel micro-benchmarks.

Not a paper artifact — these guard the performance of the data structures
everything else sits on (the "measure before optimising" discipline): event
throughput of the engine (with and without cancellation churn),
availability-profile queries at realistic breakpoint counts, and the
full-iteration cost of the scheduler on a deep queue, and the event-driven
activation's skip rate on a timer-driven system.  Each test records its
headline number into the bench snapshot via
:func:`benchmarks.conftest.record_bench`.
"""

import pytest

from benchmarks.conftest import record_timed
from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.profile import AvailabilityProfile
from repro.maui.config import MauiConfig
from repro.sim.engine import Engine
from repro.system import BatchSystem
from repro.apps.synthetic import FixedRuntimeApp
from repro.jobs.job import Job


@pytest.mark.benchmark(group="kernel")
def test_engine_event_throughput(benchmark):
    """Schedule + dispatch 10k no-op events on 100 distinct timestamps.

    This dense stimulus is the best case of the calendar queue PR 15
    removed: BENCH_PR14 reads ~1.5 M events/s here (the adaptive engine
    had switched to the calendar) against ~0.7 M for the heap that remains,
    so the row falls by about half at PR 15.  Accepted because the queue
    is under 3 % of every end-to-end workload's wall clock and no
    ``bench/run.py`` metric moved with either backend forced
    (docs/history/PR15.md).
    """

    def run_events():
        engine = Engine()
        count = 0

        def tick():
            nonlocal count
            count += 1

        for i in range(10_000):
            engine.at(float(i % 100), tick)
        engine.run()
        return count

    assert benchmark(run_events) == 10_000
    record_timed(
        "kernel", "engine_event_throughput",
        benchmark,
        events=10_000,
        per_second={"events_per_second": 10_000},
    )


@pytest.mark.benchmark(group="kernel")
def test_engine_cancel_churn(benchmark):
    """Schedule/cancel/replace 10k events — the walltime-limit pattern.

    Every processed event cancels a pending "limit" and schedules a new
    one, exactly what job completions do to their walltime enforcement
    events.  Tombstone compaction keeps the heap bounded; this bench
    guards the amortised cost of that lazy purge.
    """

    def churn():
        engine = Engine()
        pending = []

        def tick():
            if pending:
                pending.pop(0).cancel()
            pending.append(engine.at(engine.now + 1000.0, lambda: None))

        for i in range(10_000):
            engine.at(float(i), tick)
        engine.run(until=10_000.0)
        return engine.heap_size

    heap_size = benchmark(churn)
    assert heap_size < 10_000  # compaction actually ran
    record_timed(
        "kernel", "engine_cancel_churn",
        benchmark,
        events=10_000,
        final_heap_size=heap_size,
    )


@pytest.mark.benchmark(group="kernel")
def test_profile_earliest_fit_under_load(benchmark):
    """earliest_fit over a profile with ~200 breakpoints on 15 nodes."""
    nodes = list(range(15))
    base = AvailabilityProfile(nodes, {i: 8 for i in nodes}, 0.0, {i: 8 for i in nodes})
    for k in range(100):
        node = k % 15
        start = float(k * 13 % 997)
        base.add_claim(start, start + 50.0, Allocation({node: 4}))

    def query():
        prof = base.copy()
        return prof.earliest_fit(ResourceRequest(cores=60), 120.0)

    t, alloc = benchmark(query)
    assert alloc.total_cores == 60
    record_timed(
        "kernel", "profile_earliest_fit",
        benchmark,
        breakpoints=200,
    )


@pytest.mark.benchmark(group="kernel")
def test_profile_earliest_fit_shard_rounds(benchmark):
    """The static pass's reservation loop at the shape replays produce: one
    16-node shard profile with 12 breakpoints, five blocked jobs each
    reserved (``earliest_fit`` without the start probe) and claimed."""
    nodes = list(range(16))
    full = {i: 8 for i in nodes}
    base = AvailabilityProfile(nodes, {i: 0 for i in nodes}, 0.0, full)
    # 11 running jobs of 1-2 nodes release at distinct walltime ends
    releases = [(0, 1), (2,), (3, 4), (5,), (6, 7), (8,), (9, 10), (11,),
                (12, 13), (14,), (15,)]
    for k, held in enumerate(releases):
        base.add_release(600.0 * (k + 1), Allocation({n: 8 for n in held}))
    assert len(base.breakpoints) == 12
    blocked = [
        (ResourceRequest(cores=24), 3600.0),
        (ResourceRequest(cores=40), 1800.0),
        (ResourceRequest(nodes=2, ppn=8), 7200.0),
        (ResourceRequest(cores=12), 900.0),
        (ResourceRequest(cores=64), 3600.0),
    ]

    def rounds():
        prof = base.copy()
        starts = []
        for request, walltime in blocked:
            start, alloc = prof.earliest_fit(
                request, walltime, after=0.0, probe_start=False
            )
            prof.add_claim(start, start + walltime, alloc)
            starts.append(start)
        return starts

    starts = benchmark(rounds)
    assert len(starts) == 5 and all(s > 0.0 for s in starts)
    record_timed(
        "kernel", "profile_earliest_fit_shard",
        benchmark,
        nodes=16, breakpoints=12, rounds=5,
    )


@pytest.mark.benchmark(group="kernel")
def test_profile_fit_from_min(benchmark):
    """Allocation picking out of one 16-node window minimum: a flexible
    and a shaped request, as every successful probe ends."""
    nodes = tuple(range(16))
    prof = AvailabilityProfile(
        nodes, {i: (3 * i + 5) % 9 for i in nodes}, 0.0, {i: 8 for i in nodes}
    )
    free_min = prof._window_min(0.0, 3600.0)
    flexible = ResourceRequest(cores=40)
    shaped = ResourceRequest(nodes=4, ppn=4)

    def pick():
        return (
            prof._fit_from_min(free_min.tolist(), flexible, nodes),
            prof._fit_from_min(free_min.tolist(), shaped, nodes),
        )

    a, b = benchmark(pick)
    assert a.total_cores == 40 and b.total_cores == 16
    record_timed(
        "kernel", "profile_fit_from_min",
        benchmark,
        nodes=16, picks=2,
    )


def _loaded_system(shards: int | None = None) -> BatchSystem:
    config = MauiConfig(reservation_depth=5, reservation_delay_depth=5)
    if shards is not None:
        config = MauiConfig(
            reservation_depth=5, reservation_delay_depth=5, scheduler_shards=shards
        )
    system = BatchSystem(15, 8, config)
    # fill the machine
    for i in range(15):
        system.submit(
            Job(request=ResourceRequest(cores=8), walltime=5000.0, user=f"r{i%4}"),
            FixedRuntimeApp(5000.0),
        )
    # deep queue of blocked jobs
    for i in range(60):
        system.submit(
            Job(request=ResourceRequest(cores=32), walltime=600.0, user=f"q{i%6}"),
            FixedRuntimeApp(600.0),
        )
    system.run(until=0.0)
    return system


@pytest.mark.benchmark(group="kernel")
def test_scheduler_iteration_deep_queue(benchmark):
    """One full iteration with 60 queued jobs and a loaded machine."""

    def setup():
        return (_loaded_system(),), {}

    def iterate(system):
        system.scheduler.iteration()

    benchmark.pedantic(iterate, setup=setup, rounds=50, warmup_rounds=2, iterations=1)
    record_timed(
        "kernel",
        "scheduler_iteration_deep_queue_cache_on",
        benchmark,
        queued_jobs=60,
    )


@pytest.mark.benchmark(group="kernel")
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_scheduler_iteration_deep_queue_sharded(benchmark, shards):
    """The deep-queue iteration against shard-sized profile matrices.

    Same stimulus as :func:`test_scheduler_iteration_deep_queue`, but the
    static pass runs per shard: planning and backfill scans
    touch matrices of ~15/N nodes instead of 15, and quiescent shards are
    skipped outright on echo wake-ups.  The headline sharding number —
    compare against the single-matrix ``scheduler_iteration_deep_queue_
    cache_on`` baseline (330 µs in BENCH_PR7).
    """

    def setup():
        return (_loaded_system(shards=shards),), {}

    def iterate(system):
        system.scheduler.iteration()

    benchmark.pedantic(iterate, setup=setup, rounds=50, warmup_rounds=2, iterations=1)
    record_timed(
        "kernel",
        f"scheduler_iteration_deep_queue_shards{shards}",
        benchmark,
        queued_jobs=60,
        shards=shards,
    )


@pytest.mark.benchmark(group="kernel")
def test_scheduler_iterations_skipped(benchmark):
    """Timer-driven run: quiescent wake-ups skipped by event-driven activation.

    A 1-second timer on a workload whose state changes every ~500s is the
    worst case the skip logic was built for: nearly every tick finds the
    fingerprint unchanged and must cost O(1) instead of a full planning
    pass.  Records the achieved skip ratio alongside the wall clock.
    """

    def run_timer_system():
        system = BatchSystem(4, 8, MauiConfig(timer_interval=1.0))
        for i in range(8):
            system.submit(
                Job(request=ResourceRequest(cores=8), walltime=600.0, user=f"u{i%3}"),
                FixedRuntimeApp(500.0 + 10.0 * i),
            )
        system.run(until=5_000.0)
        return dict(system.scheduler.stats)

    stats = benchmark(run_timer_system)
    assert stats["iterations_skipped"] > 0
    assert stats["iterations"] + stats["iterations_skipped"] >= 5_000
    record_timed(
        "kernel", "scheduler_iterations_skipped",
        benchmark,
        iterations=stats["iterations"],
        iterations_skipped=stats["iterations_skipped"],
        skip_ratio=stats["iterations_skipped"]
        / (stats["iterations"] + stats["iterations_skipped"]),
    )


@pytest.mark.benchmark(group="kernel")
def test_profile_maintenance_incremental(benchmark):
    """Availability-profile refresh by incremental advance.

    Before each timed build a fixed set of jobs changes cores (untimed):
    three running jobs are preempted, and before the next build started
    again on the same cores, so every build advances the shard's base by
    three departures or three arrivals.  Compare with
    :func:`test_profile_maintenance_scratch`.
    """
    system = _loaded_system()
    scheduler = system.scheduler
    server = system.server
    profiles = scheduler.profiles
    shard = profiles.shard_map.shards[0]
    churn_jobs = [(job, job.allocation) for job in server.active_jobs()[:3]]
    profiles.build(shard)  # seeds the shard's base
    advances_before = scheduler.stats["profile_advances"]

    def churn():
        for job, alloc in churn_jobs:
            if job.is_active:
                server.preempt_job(job)
            else:
                server.start_job(job, alloc)

    benchmark.pedantic(profiles.build, args=(shard,), setup=churn, rounds=200)
    assert scheduler.stats["profile_advances"] > advances_before
    assert scheduler.stats["profile_advance_fallbacks"] == 0
    record_timed(
        "kernel", "profile_maintenance_incremental",
        benchmark,
        active_jobs=15,
    )


@pytest.mark.benchmark(group="kernel")
def test_profile_maintenance_scratch(benchmark):
    """The from-scratch build the advance falls back to: every running
    job replayed into a fresh profile."""
    scheduler = _loaded_system().scheduler
    benchmark(scheduler.profiles.build_uncached, None)
    record_timed(
        "kernel", "profile_maintenance_scratch",
        benchmark,
        active_jobs=15,
    )
