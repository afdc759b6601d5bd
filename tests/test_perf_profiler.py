"""Phase profiler: clock shim, path accounting, scheduler integration.

The profiler's contract has three parts tested here: (1) exact arithmetic —
with a frozen manual clock, totals/self times/paths are deterministic
integers; (2) zero behavioural footprint — an instrumented run produces a
bit-identical schedule to an uninstrumented one, because the profiler only
ever reads the wall clock; (3) coverage — the instrumented phases tile a
scheduler iteration.  Here that is checked on a clock that ticks a fixed
step per read, where the tiling is exact arithmetic; the wall-clock bound
(direct children ≥ 90 % of an iteration) depends on host load and lives in
``benchmarks/test_perf_observatory.py``.
"""

import io
import itertools

import pytest

from repro.maui.config import MauiConfig
from repro.obs import Telemetry
from repro.obs.clock import ManualClock, monotonic_s, perf_ns, reset_clock, set_clock
from repro.obs.perf import (
    PhaseProfiler,
    aggregate_phase_records,
    read_phases_jsonl,
    stats_tree,
)
from repro.obs.registry import MetricsRegistry
from repro.system import BatchSystem
from repro.workloads.random_workload import make_random_workload


@pytest.fixture
def clk():
    clock = ManualClock()
    set_clock(clock)
    yield clock
    reset_clock()


class TestClockShim:
    def test_manual_clock_freezes_both_views(self, clk):
        clk.now_ns = 2_500_000_000
        assert perf_ns() == 2_500_000_000
        assert monotonic_s() == pytest.approx(2.5)
        clk.advance(500_000_000)
        assert monotonic_s() == pytest.approx(3.0)

    def test_negative_advance_rejected(self, clk):
        with pytest.raises(ValueError):
            clk.advance(-1)

    def test_reset_restores_real_clock(self):
        clock = ManualClock()
        set_clock(clock)
        reset_clock()
        a, b = perf_ns(), perf_ns()
        assert b >= a > 0


class TestPhaseAccounting:
    def test_nested_totals_and_self_times_exact(self, clk):
        prof = PhaseProfiler()
        prof.begin("a")
        clk.advance(1_000)
        prof.begin("b")
        clk.advance(500)
        prof.end()
        clk.advance(200)
        prof.end()
        stats = prof.stats()
        assert set(stats) == {("a",), ("a", "b")}
        assert stats[("a",)].total_ns == 1_700
        assert stats[("a",)].self_ns == 1_200
        assert stats[("a", "b")].total_ns == 500
        assert stats[("a", "b")].self_ns == 500
        assert prof.depth == 0
        assert prof.child_coverage(("a",)) == pytest.approx(500 / 1_700)

    def test_same_name_under_two_parents_kept_separate(self, clk):
        prof = PhaseProfiler()
        for parent, dur in (("x", 100), ("y", 300)):
            prof.begin(parent)
            prof.begin("build")
            clk.advance(dur)
            prof.end()
            prof.end()
        stats = prof.stats()
        assert stats[("x", "build")].total_ns == 100
        assert stats[("y", "build")].total_ns == 300

    def test_tree_shape_and_rounding(self, clk):
        prof = PhaseProfiler()
        prof.begin("root")
        clk.advance(2_000_000)
        prof.begin("leaf")
        clk.advance(1_000_000)
        prof.end()
        prof.end()
        tree = prof.tree()
        assert tree["root"]["total_ms"] == pytest.approx(3.0)
        assert tree["root"]["self_ms"] == pytest.approx(2.0)
        assert tree["root"]["children"]["leaf"]["total_ms"] == pytest.approx(1.0)
        assert tree["root"]["children"]["leaf"]["children"] == {}

    def test_max_and_mean_in_summary(self, clk):
        prof = PhaseProfiler()
        for dur in (1_000, 3_000):
            prof.begin("p")
            clk.advance(dur)
            prof.end()
        row = prof.summary()["p"]
        assert row["count"] == 2
        assert row["mean_us"] == pytest.approx(2.0)
        assert row["max_us"] == pytest.approx(3.0)

    def test_record_ring_drops_oldest(self, clk):
        prof = PhaseProfiler(trace_maxlen=2)
        for i in range(3):
            prof.begin(f"p{i}")
            clk.advance(10)
            prof.end()
        records = list(prof.iter_records())
        assert [r["phase"] for r in records] == ["p1", "p2"]
        assert prof.records_dropped == 1
        # aggregates still cover all three
        assert prof.total_phase_count() == 3

    def test_registry_histogram_per_path(self, clk):
        registry = MetricsRegistry()
        prof = PhaseProfiler(registry=registry)
        prof.begin("a")
        prof.begin("b")
        clk.advance(2_000_000)  # 2 ms
        prof.end()
        prof.end()
        hist = registry.histogram(
            "repro_phase_seconds",
            "Wall-clock seconds spent per profiled phase path",
            labels={"phase": "a/b"},
        )
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.002)


class TestPhaseTrace:
    def test_jsonl_round_trip_rebuilds_aggregates(self, clk):
        prof = PhaseProfiler()
        prof.begin("outer", sim_time=5.0)
        clk.advance(1_000)
        prof.begin("inner")
        clk.advance(400)
        prof.end()
        prof.end()
        buf = io.StringIO()
        assert prof.export_phases_jsonl(buf) == 2
        buf.seek(0)
        records = read_phases_jsonl(buf)
        assert all(r["t"] == 5.0 for r in records)
        stats = aggregate_phase_records(records)
        assert stats[("outer",)].total_ns == 1_400
        # self reconstructed by subtracting direct children
        assert stats[("outer",)].self_ns == 1_000
        assert stats[("outer", "inner")].total_ns == 400

    def test_stats_tree_matches_live_tree(self, clk):
        prof = PhaseProfiler()
        prof.begin("a")
        clk.advance(1_000_000)
        prof.begin("b")
        clk.advance(1_000_000)
        prof.end()
        prof.end()
        assert stats_tree(prof.stats()) == prof.tree()

    def test_read_rejects_foreign_records(self):
        with pytest.raises(ValueError):
            read_phases_jsonl(io.StringIO('{"kind": "meta"}\n'))


def _run_workload(profiling: bool):
    # arrivals outpace the 4x8 machine, so the queue stays deep: a pass
    # then does planning work, and the coverage test below measures the
    # scheduler's phases rather than the profiler's own begin/end frames
    telemetry = Telemetry(profiling=profiling) if profiling else None
    system = BatchSystem(4, 8, MauiConfig(), telemetry=telemetry)
    make_random_workload(
        400, system.cluster.total_cores, seed=7, mean_interarrival=4.0
    ).submit_to(system)
    system.run(max_events=1_000_000)
    return system, telemetry


#: the ticking clock's step: every wall-clock read moves it this far
TICK_NS = 1_000
ITERATION = ("engine_dispatch", "sched_iteration")


class TestSchedulerIntegration:
    """A profiled deep-queue run on a clock that ticks once per read, so
    no test of this class reads the wall clock."""

    @pytest.fixture(scope="class")
    def profiled(self):
        set_clock(itertools.count(0, TICK_NS).__next__)
        try:
            yield _run_workload(profiling=True)
        finally:
            reset_clock()

    def test_stack_balanced_after_run(self, profiled):
        _, telemetry = profiled
        assert telemetry.profiler.depth == 0

    def test_every_path_roots_at_engine_dispatch(self, profiled):
        _, telemetry = profiled
        paths = telemetry.profiler.stats()
        assert paths
        assert all(path[0] == "engine_dispatch" for path in paths)

    def test_scheduler_phases_recorded(self, profiled):
        _, telemetry = profiled
        tree = telemetry.profiler.tree()
        sched = tree["engine_dispatch"]["children"]["sched_iteration"]
        assert {"static_pass", "prioritize", "fairshare_update"} <= set(
            sched["children"]
        )

    def test_children_tile_iteration_on_a_ticking_clock(self, profiled):
        # On this clock a phase lasts as many steps as the clock reads made
        # after its begin, up to its end.  Inside an iteration the only
        # reads not within a direct child are each child's begin, the
        # iteration's own end and the two reads of the scheduler's
        # ``dyn_handle_seconds`` timer around each dynamic request; any
        # other clock read outside a child phase breaks the equality.
        _, telemetry = profiled
        prof = telemetry.profiler
        stats = prof.stats()
        parent = stats[ITERATION]
        children = {
            p[-1]: s for p, s in stats.items() if len(p) == 3 and p[:2] == ITERATION
        }
        assert {"static_pass", "prioritize", "fairshare_update"} <= set(children)
        dyn_requests = children["dyn_request"].count if "dyn_request" in children else 0
        untimed_reads = (
            parent.count + sum(s.count for s in children.values()) + 2 * dyn_requests
        )
        gap_ns = parent.total_ns - sum(s.total_ns for s in children.values())
        assert gap_ns == TICK_NS * untimed_reads
        assert prof.child_coverage(ITERATION) == (
            (parent.total_ns - TICK_NS * untimed_reads) / parent.total_ns
        )

    def test_phase_histograms_in_shared_registry(self, profiled):
        _, telemetry = profiled
        names = {
            (inst.name, dict(inst.labels).get("phase"))
            for inst in telemetry.registry.collect()
            if inst.name == "repro_phase_seconds"
        }
        assert ("repro_phase_seconds", "engine_dispatch") in names

    def test_profiling_is_bit_identical_to_disabled(self, profiled):
        profiled_system, _ = profiled
        plain_system, _ = _run_workload(profiling=False)
        # job IDs come from a process-global counter, so compare the
        # schedule itself: exact submit/start/end times and final states
        schedule = lambda s: sorted(  # noqa: E731
            (j.submit_time, j.start_time, j.end_time, j.state.value)
            for j in s.server.jobs.values()
        )
        assert schedule(profiled_system) == schedule(plain_system)
        assert (
            profiled_system.trace.total_recorded == plain_system.trace.total_recorded
        )
