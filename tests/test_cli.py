"""Tests for the command-line interface."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_artifact_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.artifact == "table1"
        assert args.cores == 120
        assert not hasattr(args, "seed")  # table1 reads no seed

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

    def test_gantt_ledger_overlays_one_line_per_grant(self, capsys):
        from repro.experiments.runner import run_esp_configuration_cached

        assert main(["gantt", "--ledger"]) == 0
        out = capsys.readouterr().out
        ledger = run_esp_configuration_cached(
            "Dyn-HP", seed=2014, decision_ledger=True
        ).telemetry.ledger
        grants = ledger.grants()
        assert grants
        assert "grants   |" in out
        lines = [line.split()[0] for line in out.splitlines() if line.startswith("  grant.")]
        assert lines == [d.payload["grant_id"] for d in grants]


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
        assert resolve_workers(args.jobs) == len(os.sched_getaffinity(0))

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
        assert last.startswith("repro-batchsim table2: error: argument --shards:")

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

        from repro.experiments.configs import configuration
        from repro.experiments.table2 import _run_instrumented_config

        _run_instrumented_config(configuration("Static"), 2014, tmp_path)
        trace = tmp_path / "Static.trace.jsonl"
        assert trace.exists()
        assert main(["serve", "--replay-from", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "backend 'replay'" in out
        assert "service shutdown: clean" in out


class TestViaService:
    def test_shards_reach_the_runner(self, monkeypatch):
        """``table2 --via-service --shards 2`` runs every config at 2 shards."""
        from repro.experiments import table2

        class Reached(Exception):
            pass

        seen = []

        def fake_runner(configuration, **kwargs):
            seen.append((configuration.maui.scheduler_shards, kwargs["via_service"]))
            raise Reached

        monkeypatch.setattr(table2, "run_esp_configuration", fake_runner)
        with pytest.raises(Reached):
            main(["table2", "--via-service", "--shards", "2"])
        assert seen == [(2, True)]


#: every flag of the flat parser this CLI replaced (``-v`` aside): a value
#: that parses, the namespace attribute, and that parser's default
FLAGS = {
    "--seed": (["7"], "seed", 2014),
    "--cores": (["64"], "cores", 120),
    "--tail": (["5"], "tail", 20),
    "--sample-interval": (["30"], "sample_interval", 60.0),
    "--trace-maxlen": (["100"], "trace_maxlen", None),
    "--telemetry-out": (["out"], "telemetry_out", None),
    "--ledger": ([], "ledger", False),
    "--job": (["job.1"], "job", None),
    "--jobs": (["2"], "jobs", None),
    "--faults": ([], "faults", False),
    "--shards": (["2"], "shards", None),
    "--fault-seed": (["7"], "fault_seed", 2014),
    "--mtbf": (["100"], "mtbf", 6000.0),
    "--mttr": (["10"], "mttr", 900.0),
    "--fault-dist": (["weibull"], "fault_dist", "exponential"),
    "--burst-probability": (["0.1"], "burst_probability", 0.0),
    "--delivery-failure-rate": (["0.1"], "delivery_failure_rate", 0.05),
    "--out": (["out"], "out", None),
    "--slo": (["jain >= 0.6"], "slo", None),
    "--profile": ([], "profile", False),
    "--window-width": (["300"], "window_width", 600.0),
    "--phases": (["p.jsonl"], "phases", None),
    "--windows": (["w.jsonl"], "windows", None),
    "--baseline": (["b.json"], "baseline", None),
    "--current": (["c.json"], "current", None),
    "--tolerance": (["2"], "tolerance", 0.5),
    "--fail-on-regress": ([], "fail_on_regress", False),
    "--num-jobs": (["50"], "num_jobs", 200),
    "--via-service": ([], "via_service", False),
    "--trace-file": (["t.jsonl"], "trace_file", None),
    "--ledger-file": (["l.jsonl"], "ledger_file", None),
    "--backend": (["sim"], "backend", "sim"),
    "--replay-from": (["t.jsonl"], "replay_from", None),
    "--max-open": (["3"], "max_open", None),
}

_LIVE = {"--seed", "--sample-interval", "--trace-maxlen"}
_FAULTS = {"--fault-seed", "--mtbf", "--mttr", "--fault-dist",
           "--burst-probability", "--delivery-failure-rate"}

#: the flags each command's handler reads — and so the only ones it parses
OWNED = {
    "table1": {"--cores"},
    "table2": {"--seed", "--jobs", "--ledger", "--profile", "--shards", "--slo",
               "--telemetry-out", "--via-service", "--window-width"},
    "fig7": set(),
    "fig8": {"--seed"},
    "fig9": {"--seed"},
    "fig10": {"--seed"},
    "fig11": {"--seed"},
    "fig12": set(),
    "baselines": {"--seed"},
    "gantt": {"--seed", "--ledger"},
    "sweep": {"--jobs"},
    "campaign": {"--jobs", "--num-jobs"},
    "export": {"--seed"},
    "trace": _LIVE | {"--tail", "--trace-file"},
    "timeline": _LIVE,
    "metrics": _LIVE | {"--windows"},
    "ledger": _LIVE | {"--tail", "--ledger-file"},
    "why": _LIVE | {"--job", "--ledger-file"},
    "fairness": _LIVE,
    "slo": _LIVE | {"--tail", "--slo"},
    "resilience": {"--seed", "--jobs", "--out"} | _FAULTS,
    "perf-report": {"--seed", "--window-width", "--phases", "--windows"},
    "bench-trend": {"--baseline", "--current", "--tolerance", "--fail-on-regress"},
    "serve": {"--seed", "--trace-maxlen", "--max-open", "--replay-from"},
}

#: what a command needs to parse at all
_REQUIRED = {"bench-trend": ["--baseline", "b.json", "--current", "c.json"]}


class TestFlagOwnership:
    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("command", OWNED)
    def test_only_owned_flags_parse(self, command, flag, capsys):
        value, dest, default = FLAGS[flag]
        base = [command, *_REQUIRED.get(command, [])]
        if flag in OWNED[command]:
            if flag not in base:
                assert getattr(build_parser().parse_args(base), dest) == default
            build_parser().parse_args([*base, flag, *value])
            return
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*base, flag, *value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_ownership_table_is_the_parser(self):
        """Counted from the parser: 33 flags, 72 (command, flag) pairs."""
        import argparse

        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        declared = {
            name: {
                action.option_strings[-1]
                for action in command._actions
                if action.option_strings[-1] not in ("--help", "--verbose")
            }
            for name, command in sub.choices.items()
        }
        assert declared == {**OWNED, "all": {"--seed"}}
        flags = set().union(*declared.values())
        assert len(flags | {"--verbose"}) == 33
        assert sum(len(owned) for owned in OWNED.values()) == 72

    def test_verbose_parses_before_and_after_the_command(self):
        assert build_parser().parse_args(["-vv", "fig7"]).verbose == 2
        assert build_parser().parse_args(["fig7", "-v"]).verbose == 1
        assert build_parser().parse_args(["fig7"]).verbose == 0

    def test_all_owns_seed_and_runs_every_command_but_bench_trend(self):
        args = build_parser().parse_args(["all", "--seed", "7"])
        assert args.seed == 7
        names = [command.prog.split()[-1] for command in args.commands]
        assert sorted(names) == sorted(set(OWNED) - {"bench-trend"})


ROOT = Path(__file__).resolve().parent.parent
_PREFIX = r"(?:repro-batchsim|python -m repro\.cli)(?=\s|$)"
_LINE = re.compile(r"^(\s*)(?:\$ |run: )?(" + _PREFIX + r".*)$")
_PLACEHOLDER = re.compile(r"<\w[^<>\s]*>|\.\.\.|…")
_SHELL = {"|", "||", "&&", ";", ">", ">>", "2>"}


def _command_lines(text: str):
    """Every command line of a Markdown or workflow file.

    A line that starts with the command (after ``$ `` or ``run: ``)
    continues over ``\\`` and over deeper-indented lines (a YAML plain
    scalar); inline code spans outside fenced blocks may wrap.
    """
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = _LINE.match(lines[i])
        i += 1
        if not match:
            continue
        indent, command = len(match.group(1)), match.group(2)
        while i < len(lines) and (
            command.endswith("\\")
            or (
                lines[i].strip()
                and len(lines[i]) - len(lines[i].lstrip()) > indent
                and not _LINE.match(lines[i])
            )
        ):
            command = command.rstrip("\\") + " " + lines[i].strip()
            i += 1
        yield command
    prose = re.sub(r"^\s*```.*?^\s*```", "", text, flags=re.S | re.M)
    for span in re.findall(r"`(" + _PREFIX + r"[^`]*)`", prose):
        yield " ".join(span.split())


def _documented_commands():
    files = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    files += sorted((ROOT / "docs").glob("*.md"))
    files.append(ROOT / ".github" / "workflows" / "ci.yml")
    for path in files:
        for line in _command_lines(path.read_text()):
            words = shlex.split(re.sub(_PREFIX, "", line, count=1), comments=True)
            cut = next((i for i, w in enumerate(words) if w in _SHELL), len(words))
            argv = words[:cut]
            if not any(_PLACEHOLDER.search(word) for word in argv):
                yield pytest.param(argv, id=f"{path.name}:{' '.join(argv)}")


class TestDocumentedCommands:
    @pytest.mark.parametrize("argv", _documented_commands())
    def test_parses(self, argv):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:  # --help exits 0
            assert exc.code == 0

    @pytest.mark.parametrize(
        "argv, code", [(["fig7", "--help"], 0), (["fig7", "--seed", "1"], 2)]
    )
    def test_python_m_entry_point(self, argv, code):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert result.returncode == code

    def test_console_script_resolves_to_main(self):
        import importlib

        text = (ROOT / "pyproject.toml").read_text()
        target = re.search(r'^repro-batchsim = "([\w.]+):(\w+)"$', text, re.M)
        module, attr = target.groups()
        assert getattr(importlib.import_module(module), attr) is main
