"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_artifact_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.artifact == "table1"
        assert args.seed == 2014

    def test_seed_option(self):
        args = build_parser().parse_args(["table2", "--seed", "7"])
        assert args.seed == 7

    def test_cores_option(self):
        args = build_parser().parse_args(["table1", "--cores", "64"])
        assert args.cores == 64

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_table1_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "user06" in out

    def test_table1_other_machine(self, capsys):
        main(["table1", "--cores", "64"])
        assert "64 cores" in capsys.readouterr().out

    def test_table2_prints(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Dyn-HP" in out and "Static" in out

    def test_fig7_prints(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "FlatPlate" in out and "Cylinder" in out

    def test_fig9_prints(self, capsys):
        assert main(["fig9"]) == 0
        assert "type L" in capsys.readouterr().out

    def test_export_prints_json(self, capsys):
        import json

        assert main(["export"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["seed"] == 2014
        assert len(data["table2"]) == 4

    def test_baselines_prints(self, capsys):
        assert main(["baselines"]) == 0
        out = capsys.readouterr().out
        assert "Guaranteeing" in out and "SLURM-style" in out

    def test_gantt_prints(self, capsys):
        assert main(["gantt"]) == 0
        out = capsys.readouterr().out
        assert "node000" in out


class TestJobsFlag:
    def test_default_is_serial(self):
        assert build_parser().parse_args(["sweep"]).jobs is None

    def test_explicit_worker_count(self):
        assert build_parser().parse_args(["sweep", "-j", "4"]).jobs == 4
        assert build_parser().parse_args(["table2", "--jobs", "2"]).jobs == 2

    def test_zero_means_all_cpus(self):
        import os

        from repro.exec import resolve_workers

        args = build_parser().parse_args(["campaign", "-j", "0"])
        assert args.jobs == 0
        assert resolve_workers(args.jobs) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "-j", "-1"])

    def test_non_integer_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "-j", "two"])

    def test_shards_override(self):
        assert build_parser().parse_args(["table2"]).shards is None
        assert build_parser().parse_args(["table2", "--shards", "2"]).shards == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_shards_below_one_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--shards", value])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("repro-batchsim: error: argument --shards:")

    def test_campaign_command_listed(self):
        args = build_parser().parse_args(["campaign", "--num-jobs", "50"])
        assert args.artifact == "campaign"
        assert args.num_jobs == 50

    def test_campaign_num_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--num-jobs", "0"])

    def test_campaign_prints(self, capsys):
        assert main(["campaign", "--num-jobs", "20"]) == 0
        out = capsys.readouterr().out
        assert "Random mixed-workload campaign" in out
        assert "Satisfied" in out


class TestInputHardening:
    """File-reading subcommands fail cleanly: exit 2, one-line error."""

    def check(self, capsys, argv, path):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert str(path) in lines[0]

    def test_trace_file_missing(self, capsys, tmp_path):
        path = tmp_path / "nope.trace.jsonl"
        self.check(capsys, ["trace", "--trace-file", str(path)], path)

    def test_ledger_file_corrupt(self, capsys, tmp_path):
        path = tmp_path / "bad.ledger.jsonl"
        path.write_text("{not json\n")
        self.check(capsys, ["ledger", "--ledger-file", str(path)], path)

    def test_why_ledger_file_missing(self, capsys, tmp_path):
        path = tmp_path / "gone.ledger.jsonl"
        self.check(capsys, ["why", "--ledger-file", str(path)], path)

    def test_perf_report_phases_corrupt(self, capsys, tmp_path):
        path = tmp_path / "bad.phases.jsonl"
        path.write_text('{"phase": "unterminated\n')
        self.check(capsys, ["perf-report", "--phases", str(path)], path)

    def test_perf_report_windows_missing(self, capsys, tmp_path):
        path = tmp_path / "none.windows.jsonl"
        self.check(capsys, ["perf-report", "--windows", str(path)], path)

    def test_bench_trend_corrupt_snapshot(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text("not json at all")
        current = tmp_path / "cur.json"
        current.write_text("{}")
        self.check(
            capsys,
            ["bench-trend", "--baseline", str(baseline), "--current", str(current)],
            baseline,
        )

    def test_serve_replay_from_missing(self, capsys, tmp_path):
        path = tmp_path / "never.trace.jsonl"
        self.check(capsys, ["serve", "--replay-from", str(path)], path)


class TestServe:
    def test_serve_runs_clean(self, capsys):
        assert main(["serve", "--seed", "2014"]) == 0
        out = capsys.readouterr().out
        assert "scheduler service on backend 'sim'" in out
        assert "service shutdown: clean" in out

    def test_serve_throttled(self, capsys):
        assert main(["serve", "--max-open", "2"]) == 0
        assert "throttled" in capsys.readouterr().out

    def test_serve_replay_roundtrip(self, capsys, tmp_path):
        import json

        from repro.experiments.table2 import _run_instrumented_config

        _run_instrumented_config("Static", 2014, tmp_path)
        trace = tmp_path / "Static.trace.jsonl"
        assert trace.exists()
        assert main(["serve", "--replay-from", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "backend 'replay'" in out
        assert "service shutdown: clean" in out
