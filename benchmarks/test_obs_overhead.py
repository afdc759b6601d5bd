"""Telemetry overhead: the disabled hot path must stay within 5 %.

The tentpole claim of the observability layer is that it costs (nearly)
nothing when off.  Metrics that mirror a count the core keeps are read at
collect time and have no hook site at all, on or off; the one *measured*
hook of the telemetry facade left is the cluster's busy-change callback,
one ``is not None`` attribute check when off (wall-clock time is the
phase profiler's, bounded separately below).  A true pre-instrumentation
baseline no longer exists to measure against, so the bound is
established from first principles:

1. count how many hook executions one ESP run performs (the enabled run's
   own counters and the scheduler's ``stats`` record this);
2. measure the wall cost of a single attribute-is-None check;
3. assert  hooks x per-check cost  <  5 % of the measured disabled-run
   wall time — i.e. even charging every hook at full price, the disabled
   path sits comfortably inside the 5 % envelope.

A pytest-benchmark comparison of disabled vs enabled runs rides along for
the curious (enabled adds the lifecycle-counter subscriber and sampling).
"""

import io
import statistics
import timeit

import pytest

from benchmarks.conftest import record_bench, register_report
from benchmarks.test_replay_stream import (
    CORES_PER_NODE,
    NUM_NODES,
    _synthetic_swf,
)
from repro.experiments.configs import all_configurations
from repro.experiments.runner import run_esp_configuration
from repro.maui.config import MauiConfig
from repro.obs import Telemetry
from repro.sim.events import EventKind
from repro.system import BatchSystem
from repro.workloads import evolving_ify, from_swf

_DYN_HP = next(c for c in all_configurations() if c.name == "Dyn-HP")


def _run(telemetry=None):
    return run_esp_configuration(_DYN_HP, seed=2014, telemetry=telemetry)


def _per_check_cost_seconds() -> float:
    """Wall cost of one ``self._obs is not None`` check (a disabled hook)."""

    class Host:
        __slots__ = ("_obs",)

        def __init__(self):
            self._obs = None

    host = Host()
    number = 1_000_000
    total = min(
        timeit.repeat(
            "if host._obs is not None:\n    pass",
            globals={"host": host},
            number=number,
            repeat=3,
        )
    )
    return total / number


def _count_hook_executions() -> int:
    """Hook executions in one ESP run, counted by an enabled run.

    The server and the scheduler have no facade hook left (their counters
    and gauges read the trace, ``stats`` and the queues); the cluster hook
    fires once per claim/release.  Each site is counted generously — one
    check per scheduler pass and per dynamic request is charged on top —
    so the real disabled path runs *at most* this many checks.
    """
    telemetry = Telemetry(sample_interval=None)
    result = _run(telemetry=telemetry)
    stats = result.scheduler_stats
    registry = telemetry.registry
    server_events = sum(
        registry.value(name)
        for name in (
            "repro_jobs_submitted_total",
            "repro_jobs_started_total",
            "repro_jobs_completed_total",
            "repro_jobs_aborted_total",
            "repro_jobs_preempted_total",
            "repro_dyn_requests_total",
            "repro_dyn_grants_total",
            "repro_dyn_rejects_total",
        )
    )
    # claims/releases: one per start/end/grant/release; charge 4 per job
    # event as a generous over-estimate
    cluster_checks = 4 * int(server_events)
    sched_checks = (
        stats["iterations"] + stats["dyn_granted"] + stats["dyn_rejected"]
    )
    return 2 * (cluster_checks + sched_checks)


@pytest.mark.benchmark(group="obs-overhead")
def test_disabled_run(benchmark):
    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    assert result.metrics.completed_jobs == 230


@pytest.mark.benchmark(group="obs-overhead")
def test_enabled_run(benchmark):
    result = benchmark.pedantic(
        lambda: _run(telemetry=Telemetry()), rounds=3, iterations=1
    )
    assert result.metrics.completed_jobs == 230


def test_disabled_overhead_within_five_percent():
    hooks = _count_hook_executions()
    per_check = _per_check_cost_seconds()
    start = timeit.default_timer()
    _run()
    disabled_runtime = timeit.default_timer() - start

    overhead = hooks * per_check
    budget = 0.05 * disabled_runtime
    register_report(
        "Telemetry overhead — disabled-path bound (5 % budget)",
        "\n".join(
            [
                f"  hook executions per ESP run : {hooks:>12,d}",
                f"  cost per is-None check      : {per_check * 1e9:>12.1f} ns",
                f"  worst-case disabled overhead: {overhead * 1e3:>12.3f} ms",
                f"  disabled run wall time      : {disabled_runtime * 1e3:>12.1f} ms",
                f"  5% budget                   : {budget * 1e3:>12.1f} ms",
                f"  headroom                    : {budget / overhead:>12.1f}x",
            ]
        ),
    )
    assert overhead < budget, (
        f"{hooks} hook checks x {per_check * 1e9:.1f} ns = "
        f"{overhead * 1e3:.3f} ms exceeds 5% of the "
        f"{disabled_runtime * 1e3:.1f} ms disabled run"
    )


# ----------------------------------------------------------------------
# decision-ledger overhead (same contract, separate budget accounting)
# ----------------------------------------------------------------------
def _count_ledger_hook_executions() -> int:
    """Ledger hook sites executed by one ESP run with the ledger *off*.

    The ledger adds, on the disabled path: the per-queued-job hold gate in
    ``_eligible_static``, a handful of iteration-level ``is not None``
    checks around classification, a per-start and two per-reservation
    checks in the static pass (``repro.maui.staticpass``), and one check in each of the dynamic
    grant/deny/defer funnels.  A ledger-enabled run supplies the event
    counts; every site is charged generously.
    """
    telemetry = Telemetry(sample_interval=None, decision_ledger=True)
    result = _run(telemetry=telemetry)
    stats = result.scheduler_stats
    queued_gate_checks = sum(
        e.payload["queued"]
        for e in result.trace
        if e.kind is EventKind.SCHED_ITERATION
    )
    iteration_checks = 6 * stats["iterations"]
    start_checks = stats["jobs_started"] + stats["jobs_backfilled"]
    reservation_checks = 2 * stats["reservations_created"]
    dyn_checks = 4 * (stats["dyn_granted"] + stats["dyn_rejected"])
    return int(
        queued_gate_checks
        + iteration_checks
        + start_checks
        + reservation_checks
        + dyn_checks
    )


@pytest.mark.benchmark(group="ledger")
def test_ledger_enabled_run(benchmark):
    result = benchmark.pedantic(
        lambda: _run(telemetry=Telemetry(decision_ledger=True)),
        rounds=3,
        iterations=1,
    )
    assert result.metrics.completed_jobs == 230
    record_bench(
        "ledger",
        "enabled_run",
        decisions=len(result.telemetry.ledger),
        grants=len(result.telemetry.ledger.grants()),
    )


def test_ledger_disabled_overhead_within_five_percent():
    hooks = _count_ledger_hook_executions()
    per_check = _per_check_cost_seconds()
    start = timeit.default_timer()
    _run()
    disabled_runtime = timeit.default_timer() - start

    overhead = hooks * per_check
    budget = 0.05 * disabled_runtime
    record_bench(
        "ledger",
        "disabled_bound",
        hook_checks=hooks,
        per_check_ns=per_check * 1e9,
        overhead_ms=overhead * 1e3,
        budget_ms=budget * 1e3,
        headroom=budget / overhead,
    )
    register_report(
        "Decision-ledger overhead — disabled-path bound (5 % budget)",
        "\n".join(
            [
                f"  ledger hook checks per run  : {hooks:>12,d}",
                f"  cost per is-None check      : {per_check * 1e9:>12.1f} ns",
                f"  worst-case disabled overhead: {overhead * 1e3:>12.3f} ms",
                f"  disabled run wall time      : {disabled_runtime * 1e3:>12.1f} ms",
                f"  5% budget                   : {budget * 1e3:>12.1f} ms",
                f"  headroom                    : {budget / overhead:>12.1f}x",
            ]
        ),
    )
    assert overhead < budget, (
        f"{hooks} ledger hook checks x {per_check * 1e9:.1f} ns = "
        f"{overhead * 1e3:.3f} ms exceeds 5% of the "
        f"{disabled_runtime * 1e3:.1f} ms disabled run"
    )


# ----------------------------------------------------------------------
# phase-profiler + windows overhead (same contract, profiler absent)
# ----------------------------------------------------------------------
def test_profiler_absent_overhead_within_five_percent():
    """Profiler and windows off: every hook site is one is-None check.

    A profiling-enabled run counts the begin/end pairs the instrumentation
    would execute; each pair corresponds to at most two disabled-path
    checks (the ``prof is None`` gate at the begin site and, where the end
    sits in a separate branch, one more).  Charged at 4x per pair to stay
    generous, plus one windows check per trace-recorded lifecycle event
    (the fold/queue-depth hooks on the server).
    """
    telemetry = Telemetry(sample_interval=None, profiling=True, windows=600.0)
    result = _run(telemetry=telemetry)
    phase_pairs = telemetry.profiler.total_phase_count()
    hooks = 4 * phase_pairs + 2 * result.trace.total_recorded
    per_check = _per_check_cost_seconds()
    start = timeit.default_timer()
    _run()
    disabled_runtime = timeit.default_timer() - start

    overhead = hooks * per_check
    budget = 0.05 * disabled_runtime
    record_bench(
        "perf",
        "profiler_absent_bound",
        hook_checks=hooks,
        phase_pairs=phase_pairs,
        per_check_ns=per_check * 1e9,
        overhead_ms=overhead * 1e3,
        budget_ms=budget * 1e3,
        headroom=budget / overhead,
    )
    register_report(
        "Phase-profiler overhead — profiler-absent bound (5 % budget)",
        "\n".join(
            [
                f"  profiler hook checks per run: {hooks:>12,d}",
                f"  (from {phase_pairs:,d} begin/end pairs when enabled)",
                f"  cost per is-None check      : {per_check * 1e9:>12.1f} ns",
                f"  worst-case absent overhead  : {overhead * 1e3:>12.3f} ms",
                f"  disabled run wall time      : {disabled_runtime * 1e3:>12.1f} ms",
                f"  5% budget                   : {budget * 1e3:>12.1f} ms",
                f"  headroom                    : {budget / overhead:>12.1f}x",
            ]
        ),
    )
    assert overhead < budget, (
        f"{hooks} profiler hook checks x {per_check * 1e9:.1f} ns = "
        f"{overhead * 1e3:.3f} ms exceeds 5% of the "
        f"{disabled_runtime * 1e3:.1f} ms disabled run"
    )


# ----------------------------------------------------------------------
# fault-injection overhead (same contract, injector absent)
# ----------------------------------------------------------------------
def test_faults_absent_overhead_within_five_percent():
    """With no injector attached, the fault layer is one ``self._faults is
    not None`` check per dynamic grant — nothing else touches the hot path.
    """
    telemetry = Telemetry(sample_interval=None)
    _run(telemetry=telemetry)
    hooks = int(telemetry.registry.value("repro_dyn_grants_total"))
    per_check = _per_check_cost_seconds()
    start = timeit.default_timer()
    _run()
    disabled_runtime = timeit.default_timer() - start

    overhead = hooks * per_check
    budget = 0.05 * disabled_runtime
    register_report(
        "Fault-injection overhead — injector-absent bound (5 % budget)",
        "\n".join(
            [
                f"  fault hook checks per run   : {hooks:>12,d}",
                f"  cost per is-None check      : {per_check * 1e9:>12.1f} ns",
                f"  worst-case absent overhead  : {overhead * 1e3:>12.3f} ms",
                f"  disabled run wall time      : {disabled_runtime * 1e3:>12.1f} ms",
                f"  5% budget                   : {budget * 1e3:>12.1f} ms",
                f"  headroom                    : {budget / overhead:>12.1f}x",
            ]
        ),
    )
    assert overhead < budget, (
        f"{hooks} fault hook checks x {per_check * 1e9:.1f} ns = "
        f"{overhead * 1e3:.3f} ms exceeds 5% of the "
        f"{disabled_runtime * 1e3:.1f} ms disabled run"
    )


# ----------------------------------------------------------------------
# fairness-observatory overhead (same contract, observatory absent)
# ----------------------------------------------------------------------
def test_fairness_absent_overhead_within_five_percent():
    """Observatory off: the scheduler's statistics pass costs one
    ``self._fair`` read and one ``fair is not None`` check per call, and
    each fairshare-tracker fold one call of its no-op feed.  An enabled run
    counts both (accruals are exactly the folds); every site is charged at
    2x to stay generous.
    """
    telemetry = Telemetry(sample_interval=None, fairness=True, windows=600.0)
    result = _run(telemetry=telemetry)
    fair = telemetry.fairness
    iterations = int(telemetry.registry.value("repro_sched_iterations_total"))
    hooks = 2 * (2 * iterations + fair.accruals)
    per_check = _per_check_cost_seconds()
    start = timeit.default_timer()
    _run()
    disabled_runtime = timeit.default_timer() - start

    overhead = hooks * per_check
    budget = 0.05 * disabled_runtime
    record_bench(
        "perf",
        "fairness_absent_bound",
        hook_checks=hooks,
        accruals=fair.accruals,
        per_check_ns=per_check * 1e9,
        overhead_ms=overhead * 1e3,
        budget_ms=budget * 1e3,
        headroom=budget / overhead,
    )
    register_report(
        "Fairness-observatory overhead — absent bound (5 % budget)",
        "\n".join(
            [
                f"  fairness hook checks per run: {hooks:>12,d}",
                f"  (from {fair.accruals:,d} tracker folds when enabled)",
                f"  cost per is-None check      : {per_check * 1e9:>12.1f} ns",
                f"  worst-case absent overhead  : {overhead * 1e3:>12.3f} ms",
                f"  disabled run wall time      : {disabled_runtime * 1e3:>12.1f} ms",
                f"  5% budget                   : {budget * 1e3:>12.1f} ms",
                f"  headroom                    : {budget / overhead:>12.1f}x",
            ]
        ),
    )
    assert overhead < budget, (
        f"{hooks} fairness hook checks x {per_check * 1e9:.1f} ns = "
        f"{overhead * 1e3:.3f} ms exceeds 5% of the "
        f"{disabled_runtime * 1e3:.1f} ms disabled run"
    )


@pytest.mark.benchmark(group="obs-overhead")
def test_fairness_slo_enabled_run(benchmark):
    """Enabled-path cost of the full fairness + SLO stack, for the trend
    snapshot: observatory sampling, grouped windows, objective evaluation.

    A recorded row, not a gate: on the 230-job ESP run the figure is
    dominated by the 600 s grouped windows the stack switches on (one
    frame per ten simulated minutes, per-account samples folded into
    each), not by the observatory's sampler — 41 samples per run — and a
    single pair of ~0.3 s runs swings by more than the difference.  The
    enabled path is gated where it is large enough to measure:
    :func:`test_observed_replay_overhead`.
    """

    def run():
        return _run(
            telemetry=Telemetry(
                fairness=True,
                windows=600.0,
                slo=["p99_wait < 4h", "jain >= 0.6", "share_error < 0.15"],
            )
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.metrics.completed_jobs == 230
    telemetry = result.telemetry
    start = timeit.default_timer()
    run()
    enabled_runtime = timeit.default_timer() - start
    start = timeit.default_timer()
    _run()
    disabled_runtime = timeit.default_timer() - start
    record_bench(
        "perf",
        "fairness_observatory_overhead",
        enabled_ms=enabled_runtime * 1e3,
        disabled_ms=disabled_runtime * 1e3,
        overhead_pct=100.0 * (enabled_runtime - disabled_runtime)
        / disabled_runtime,
        samples=len(telemetry.fairness.samples),
        accounts=len(telemetry.fairness.principals),
        slo_breaches=len(telemetry.slo.breaches),
    )


# ----------------------------------------------------------------------
# the enabled path on a replay: observation must not cost planning
# ----------------------------------------------------------------------
_REPLAY_EVERYTHING = dict(
    sample_interval=60, windows=3600.0, decision_ledger=True, fairness=True,
    slo=["p99_wait < 4h", "jain >= 0.5", "share_error < 0.2"],
)
_REPLAY_WINDOWS_ONLY = dict(sample_interval=None, windows=3600.0)


def test_observed_replay_overhead():
    """Everything on vs windows-only on a 2-shard 1 500-job evolving replay
    (the end-to-end benchmark's ``replay_observed`` shape): enabled ÷
    baseline stays under 1.5, and both arms plan the same reservations —
    an instrument that switched the per-shard pass skip off would show up
    in either.  Interleaved in-process medians of five; cross-run noise on
    this box is larger than the effect (docs/PERFORMANCE.md §3).
    """
    swf = _synthetic_swf(1500, 2014)
    workload = evolving_ify(
        from_swf(io.StringIO(swf), chunk_size=1 << 14), 0.05, seed=2014
    )
    config = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=2
    )

    def run(telemetry_kwargs):
        system = BatchSystem(
            NUM_NODES, CORES_PER_NODE, config,
            telemetry=Telemetry(**telemetry_kwargs),
        )
        workload.submit_to(system)
        start = timeit.default_timer()
        system.run(max_events=10_000_000)
        return timeit.default_timer() - start, system.scheduler.stats

    walls: dict[str, list[float]] = {"baseline": [], "enabled": []}
    stats = {}
    arms = [("baseline", _REPLAY_WINDOWS_ONLY), ("enabled", _REPLAY_EVERYTHING)]
    for pair in range(5):
        for name, kwargs in arms if pair % 2 == 0 else reversed(arms):
            wall, stats[name] = run(kwargs)
            walls[name].append(wall)
    baseline = statistics.median(walls["baseline"])
    enabled = statistics.median(walls["enabled"])
    ratio = enabled / baseline
    counters = {
        f"{key}_{name}": stats[name][key]
        for name in ("baseline", "enabled")
        for key in ("shard_passes_skipped", "reservations_created")
    }
    record_bench(
        "perf",
        "observed_replay_overhead",
        baseline_ms=baseline * 1e3,
        enabled_ms=enabled * 1e3,
        ratio=ratio,
        **counters,
    )
    register_report(
        "Observed-replay overhead — everything on vs windows-only (<= 1.5x)",
        "\n".join(
            [
                f"  windows-only median of 5    : {baseline * 1e3:>12.1f} ms",
                f"  everything-on median of 5   : {enabled * 1e3:>12.1f} ms",
                f"  enabled / baseline          : {ratio:>12.2f}x",
                *(f"  {key:<28}: {value:>12,d}" for key, value in counters.items()),
            ]
        ),
    )
    assert (
        counters["reservations_created_enabled"]
        == counters["reservations_created_baseline"]
    )
    assert counters["shard_passes_skipped_enabled"] > 0
    assert ratio <= 1.5, f"observed replay costs {ratio:.2f}x the windows-only run"
