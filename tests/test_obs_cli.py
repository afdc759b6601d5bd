"""CLI telemetry views: trace tail, timeline sparklines, metrics dump."""

import pytest

from repro.cli import build_parser, main
from repro.obs.console import (
    render_event_tail,
    render_ledger_table,
    render_series_sparkline,
    sparkline,
)
from repro.sim.events import EventKind, TraceLog


class TestParser:
    def test_new_artifacts_accepted(self):
        for artifact in ("trace", "timeline", "metrics"):
            assert build_parser().parse_args([artifact]).artifact == artifact

    def test_telemetry_options(self):
        args = build_parser().parse_args(
            ["trace", "--tail", "5", "--sample-interval", "30",
             "--trace-maxlen", "1000", "-vv"]
        )
        assert args.tail == 5
        assert args.sample_interval == 30.0
        assert args.trace_maxlen == 1000
        assert args.verbose == 2

    def test_telemetry_out_option(self):
        args = build_parser().parse_args(["table2", "--telemetry-out", "/tmp/x"])
        assert args.telemetry_out == "/tmp/x"


class TestConsoleRenderers:
    def test_event_tail_golden(self):
        log = TraceLog()
        log.record(0.0, EventKind.JOB_SUBMIT, job_id="job.1", user="a")
        log.record(10.5, EventKind.JOB_START, job_id="job.1", cores=8)
        out = render_event_tail(log, n=10)
        assert out.splitlines() == [
            "t=        0.00  job_submit               job_id=job.1, user=a",
            "t=       10.50  job_start                cores=8, job_id=job.1",
        ]

    def test_event_tail_notes_hidden_and_dropped(self):
        log = TraceLog(maxlen=3)
        for t in range(5):
            log.record(float(t), EventKind.JOB_SUBMIT)
        out = render_event_tail(log, n=2)
        assert "... 3 earlier events not shown, 2 dropped by ring buffer ..." in out

    def test_event_tail_empty(self):
        assert render_event_tail(TraceLog()) == "(no events recorded)"

    def test_sparkline_golden(self):
        assert sparkline([0.0, 0.5, 1.0]) == "▁▅█"
        assert sparkline([2.0, 2.0]) == "▁▁"
        assert sparkline([]) == ""

    def test_series_sparkline_downsamples(self):
        series = [(float(t), float(t % 10)) for t in range(1000)]
        out = render_series_sparkline("queue", series, width=40)
        lines = out.splitlines()
        assert lines[0].startswith("queue  t=[0s .. 999s]")
        assert len(lines[1].strip()) == 42  # 40 chars plus brackets

    def test_ledger_table_golden(self):
        out = render_ledger_table({("user", "alice"): 120.0, ("group", "g1"): 60.5})
        assert out.splitlines() == [
            "DFS ledger (cumulative delay charged this interval)",
            "  kind     principal            delay[s]",
            "  group    g1                       60.5",
            "  user     alice                   120.0",
        ]

    def test_ledger_table_empty(self):
        assert "(no delay charged)" in render_ledger_table({})


class TestMain:
    def test_trace_prints_tail(self, capsys):
        assert main(["trace", "--tail", "5"]) == 0
        out = capsys.readouterr().out
        assert "last 5 trace events" in out
        assert "job_end" in out

    def test_timeline_prints_sparklines(self, capsys):
        assert main(["timeline"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out and "queue_depth" in out
        assert any(ch in out for ch in "▁▂▃▄▅▆▇█")

    def test_metrics_prints_registry_and_spans(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sched_iterations_total counter" in out
        assert "repro_jobs_completed_total 230" in out  # the ESP workload
        assert "DFS ledger" in out
        assert "sched_iteration" in out  # span summary table

    def test_verbose_flag_emits_component_logs(self, capsys):
        import logging

        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        try:
            # a fresh seed defeats the shared run cache so the run happens
            # (and logs) inside this verbose invocation
            assert main(["-v", "trace", "--tail", "1", "--seed", "7"]) == 0
            err = capsys.readouterr().err
            assert "repro.rms.server" in err
        finally:
            for handler in logger.handlers[:]:
                if handler not in before:
                    logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)


class TestPerfObservatoryCLI:
    """perf-report / bench-trend subcommands and the windowed metrics view."""

    def test_parser_accepts_perf_artifacts(self):
        assert build_parser().parse_args(["perf-report"]).artifact == "perf-report"
        args = build_parser().parse_args(
            ["bench-trend", "--baseline", "b.json", "--current", "c.json"]
        )
        assert args.artifact == "bench-trend"
        args = build_parser().parse_args(
            ["perf-report", "--phases", "p.jsonl", "--windows", "w.jsonl",
             "--window-width", "300"]
        )
        assert args.phases == "p.jsonl"
        assert args.windows == "w.jsonl"
        assert args.window_width == 300.0

    @pytest.fixture
    def dumps(self, tmp_path):
        from repro.obs.clock import ManualClock, reset_clock, set_clock
        from repro.obs.perf import PhaseProfiler
        from repro.obs.windows import WindowedMetrics
        from types import SimpleNamespace

        clk = ManualClock()
        set_clock(clk)
        try:
            prof = PhaseProfiler()
            prof.begin("engine_dispatch", sim_time=1.0)
            clk.advance(3_000_000)
            prof.begin("sched_iteration")
            clk.advance(2_000_000)
            prof.end()
            prof.end()
            phases = tmp_path / "phases.jsonl"
            with open(phases, "w") as fp:
                prof.export_phases_jsonl(fp)
        finally:
            reset_clock()
        w = WindowedMetrics(10.0, total_cores=8)
        w.reset_busy(0.0, 4)
        w.fold_job(
            SimpleNamespace(
                job_id="j", submit_time=0.0, start_time=2.0, end_time=12.0,
                state=SimpleNamespace(value="completed"),
                is_evolving=False, dyn_granted=0,
            )
        )
        w.on_busy_change(15.0, 0)
        windows = tmp_path / "windows.jsonl"
        with open(windows, "w") as fp:
            w.export_jsonl(fp)
        return str(phases), str(windows)

    def test_perf_report_offline(self, dumps, capsys):
        phases, windows = dumps
        assert main(["perf-report", "--phases", phases, "--windows", windows]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "sched_iteration" in out
        assert "streaming aggregates" in out
        assert "windowed aggregates" in out

    def test_metrics_accepts_windows_dump(self, dumps, capsys):
        _, windows = dumps
        assert main(["metrics", "--windows", windows]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p90" in out and "p99" in out
        assert "wait[s]" in out
        assert "jobs finished 1" in out

    @pytest.fixture
    def snapshots(self, tmp_path):
        import json

        base = {
            "schema": "repro-bench/1",
            "groups": {"g": {"t": {"wall_ms": 100.0, "jobs": 3}}},
        }
        cur = {
            "schema": "repro-bench/1",
            "groups": {"g": {"t": {"wall_ms": 400.0, "jobs": 3}}},
        }
        b, c = tmp_path / "base.json", tmp_path / "cur.json"
        b.write_text(json.dumps(base))
        c.write_text(json.dumps(cur))
        return str(b), str(c)

    def test_bench_trend_reports_regression(self, snapshots, capsys):
        base, cur = snapshots
        assert main(["bench-trend", "--baseline", base, "--current", cur]) == 0
        out = capsys.readouterr().out
        assert "regressed" in out
        assert "+300.0%" in out

    def test_bench_trend_fail_on_regress_exits_nonzero(self, snapshots, capsys):
        base, cur = snapshots
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-trend", "--baseline", base, "--current", cur,
                  "--fail-on-regress"])
        assert excinfo.value.code == 1
        assert "regressed" in capsys.readouterr().out

    def test_bench_trend_identical_snapshots_pass(self, snapshots, capsys):
        base, _ = snapshots
        assert main(["bench-trend", "--baseline", base, "--current", base,
                     "--fail-on-regress"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bench_trend_requires_paths(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-trend"])
        assert excinfo.value.code == 2
        assert "required: --baseline, --current" in capsys.readouterr().err


class TestFairnessRenderers:
    def test_fairness_table_golden(self):
        from repro.obs.console import render_fairness_table

        rows = [
            {"account": "phys", "jobs": 3, "core_seconds": 1200.0,
             "share": 0.6, "target": 0.5, "share_error": 0.1,
             "mean_wait": 30.0, "mean_stretch": 1.5},
        ]
        out = render_fairness_table(rows)
        assert out.splitlines()[0] == "fairness observatory (per-account shares)"
        assert (
            "  phys                  3         1200    0.600    0.500"
            "    0.100       30.0     1.50"
        ) in out

    def test_fairness_table_handles_missing_stats(self):
        from repro.obs.console import render_fairness_table

        out = render_fairness_table(
            [{"account": "a", "core_seconds": 5.0, "share": None, "target": None}]
        )
        assert "-" in out
        assert "(no usage accrued)" in render_fairness_table([])

    def test_slo_summary_golden(self):
        from repro.obs.console import render_slo_summary

        out = render_slo_summary(
            [
                {"objective": "p99_wait < 4h", "evaluations": 10, "breaches": 0,
                 "worst_value": 90.0, "ok": True},
                {"objective": "jain >= 0.9", "evaluations": 10, "breaches": 4,
                 "worst_value": 0.41, "ok": False},
            ]
        )
        lines = out.splitlines()
        assert lines[0] == "SLO objectives:"
        assert lines[2].endswith("OK")
        assert lines[3].endswith("BREACHED")
        assert "(no objectives declared)" in render_slo_summary([])

    def test_breach_tail_hides_older_entries(self):
        from repro.obs.console import render_breach_tail

        breaches = [
            {"seq": i, "window": i, "start": 0.0, "end": 10.0,
             "objective": "max_wait < 5", "value": 8.0, "job_id": f"job.{i}"}
            for i in range(1, 6)
        ]
        out = render_breach_tail(breaches, n=2)
        assert "... 3 earlier breaches not shown ..." in out
        assert "job.5" in out and "job.2" not in out
        assert render_breach_tail([]) == "(no breaches recorded)"


class TestFairnessSLOCommands:
    def test_parser_accepts_new_artifacts(self):
        for artifact in ("fairness", "slo"):
            assert build_parser().parse_args([artifact]).artifact == artifact

    def test_slo_flag_is_repeatable(self):
        args = build_parser().parse_args(
            ["slo", "--slo", "p99_wait < 4h", "--slo", "jain >= 0.9"]
        )
        assert args.slo == ["p99_wait < 4h", "jain >= 0.9"]
        assert build_parser().parse_args(["table2"]).slo is None

    def test_fairness_prints_shares_and_distributions(self, capsys):
        assert main(["fairness"]) == 0
        out = capsys.readouterr().out
        assert "fairness observatory (per-account shares)" in out
        assert "jain_index=" in out
        assert "per-account distributions" in out
        assert "user06" in out

    def test_slo_prints_verdicts_and_breach_why(self, capsys):
        assert main(["slo"]) == 0
        out = capsys.readouterr().out
        assert "SLO objectives:" in out
        assert "BREACHED" in out and "OK" in out
        # the worked breach-to-why example: a causal chain ending in the
        # slo_breach decision for the window's worst-wait job
        assert "why job." in out
        assert "slo_breach" in out

    def test_slo_with_explicit_objective(self, capsys):
        assert main(["slo", "--slo", "mean_wait < 1000h"]) == 0
        out = capsys.readouterr().out
        assert "mean_wait < 1000h" in out
        assert "BREACHED" not in out

    def test_metrics_includes_account_rows(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "fairness observatory (per-account shares)" in out
        assert "repro_fairness_jain_index" in out
