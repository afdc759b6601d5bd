"""Every function in ``src/repro`` is reached by an artefact, or says why not.

The probe runs in one fresh interpreter, with a ``sys.setprofile`` hook
installed before ``repro`` is imported, so that import-time calls count
too.  Serially and in-process it runs every example script, every CLI
command at its defaults, the command lines the CI workflow runs (Table II
with the ledger, with two shards, through the service, with SLOs and with
the phase profiler, and the ledger run with each test reference off;
``perf-report`` on the profile; ``resilience``; ``serve`` and its replay
of a recorded trace; ``bench-trend``), and the observe views over the
recorded dumps.

Every function of ``src/repro`` the probe never enters must be listed in
``tests/reach_allowlist.txt`` under a one-line reason, and every listed
function must still be unreached.  So new surface arrives with an artefact
that reaches it, and the list can only shrink.  To print what the probe
leaves unreached::

    PYTHONPATH=src python tests/test_reach.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).with_name("reach_allowlist.txt")

#: the SLO objectives the CI workflow's serial vs ``-j 2`` check declares
_SLOS = ("p99_wait < 100m", "jain >= 0.6", "share_error < 0.15")


def _command_lines(out: Path) -> list[tuple[str | None, list[str]]]:
    """``(test reference turned off or None, argv)`` for every command at
    its defaults, each CI command line and each observe view over a dump,
    in run order, writing under ``out``."""
    o = lambda name: str(out / name)  # noqa: E731
    ledger = ["table2", "--telemetry-out", o("ledger"), "--ledger", "--seed", "2014"]
    slos = [arg for objective in _SLOS for arg in ("--slo", objective)]
    snapshot = str(ROOT / "BENCH_PR16.json")
    lines = [
        ["all"],  # every command but bench-trend, at its defaults
        ledger,
        ["table2", "--telemetry-out", o("shard2"), "--ledger", "--seed", "2014",
         "--shards", "2"],
        ["table2", "--telemetry-out", o("slo"), "--seed", "2014", *slos],
        ["table2", "--telemetry-out", o("via"), "--ledger", "--seed", "2014",
         "--via-service"],
        ["table2", "--telemetry-out", o("perf"), "--profile"],
        ["perf-report", "--phases", o("perf/Dyn-HP.phases.jsonl"),
         "--windows", o("perf/Dyn-HP.windows.jsonl")],
        ["resilience", "--seed", "2014", "--fault-seed", "7", "--out", o("faults")],
        ["serve", "--seed", "2014"],
        ["table2", "--telemetry-out", o("replay"), "--seed", "2014"],
        ["serve", "--replay-from", o("replay/Dyn-HP.trace.jsonl")],
        ["bench-trend", "--baseline", snapshot, "--current", snapshot,
         "--tolerance", "2.0", "--fail-on-regress"],
        ["trace", "--trace-file", o("ledger/Dyn-HP.trace.jsonl")],
        ["ledger", "--ledger-file", o("ledger/Dyn-HP.ledger.jsonl")],
        ["why", "--ledger-file", o("ledger/Dyn-HP.ledger.jsonl")],
        ["metrics", "--windows", o("perf/Dyn-HP.windows.jsonl")],
        ["gantt", "--ledger"],
    ]
    references = [
        (name, ledger[:2] + [o(f"ledger-{name}")] + ledger[3:])
        for name in ("shard_skip_enabled", "iteration_skip_enabled")
    ]
    return [(None, argv) for argv in lines] + references


def _probe(out: Path) -> list[tuple[str, int]]:
    """Run every artefact under the hook; ``(path under src/repro, first
    line)`` of each named function entered.  Call before importing repro."""
    import contextlib
    import inspect
    import io
    import runpy
    import threading

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        from repro import cli
        from repro.maui.scheduler import MauiScheduler

        for script in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [script.name]
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(script), run_name="__main__")
        init = MauiScheduler.__init__
        for reference, argv in _command_lines(out):
            if reference is not None:
                def with_reference_off(self, *args, _name=reference, **kwargs):
                    init(self, *args, **kwargs)
                    setattr(self, _name, False)

                MauiScheduler.__init__ = with_reference_off
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(argv)
            finally:
                MauiScheduler.__init__ = init
            assert status == 0, argv
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    src = str(SRC) + os.sep
    return sorted(
        (Path(code.co_filename).relative_to(SRC).as_posix(), code.co_firstlineno)
        for code in entered
        # functions only: class bodies, module code, lambdas and
        # comprehensions are not ``def``s
        if code.co_filename.startswith(src)
        and code.co_flags & inspect.CO_OPTIMIZED
        and not code.co_name.startswith("<")
    )


def _functions() -> dict[tuple[str, int], str]:
    """``(path under src/repro, first line)`` -> ``module:qualname`` for every
    ``def`` in ``src/repro``; a decorated function starts at its first
    decorator, as its code object does."""
    table: dict[tuple[str, int], str] = {}

    def visit(node, path: str, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                table[(path, first)] = f"{module}:{prefix}{child.name}"
                visit(child, path, module, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, module, prefix)

    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        module = ".".join(("repro", *file.relative_to(SRC).with_suffix("").parts))
        module = module.removesuffix(".__init__")
        visit(ast.parse(file.read_text(), filename=str(file)), path, module, "")
    return table


def _allowlist() -> set[str]:
    """The listed ``module:qualname`` entries.  A comment line names the
    reason for the entries below it, up to the next blank line."""
    entries: set[str] = set()
    reason = None
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            reason = None
        elif line.startswith("#"):
            reason = line.lstrip("# ")
        else:
            assert reason, f"{ALLOWLIST.name}:{number}: {line} has no reason above it"
            assert line not in entries, f"{ALLOWLIST.name}:{number}: {line} listed twice"
            entries.add(line)
    return entries


def unreached() -> list[str]:
    """The functions of ``src/repro`` the probe never enters, sorted."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))
        run = subprocess.run(
            [sys.executable, __file__, "--probe", tmp],
            cwd=tmp, env=env, capture_output=True, text=True, check=False,
        )
    assert run.returncode == 0, run.stderr[-4000:]
    entered = {tuple(key) for key in json.loads(run.stdout.splitlines()[-1])}
    functions = _functions()
    # every named function the hook saw must be one the table knows, or a
    # decorator moved a first line and the table would miss it
    assert entered <= set(functions), sorted(entered - set(functions))[:10]
    return sorted(name for key, name in functions.items() if key not in entered)


@pytest.mark.slow
def test_every_unreached_function_is_listed_with_a_reason():
    found = set(unreached())
    listed = _allowlist()
    new = sorted(found - listed)
    reached = sorted(listed - found)
    assert not new, (
        "functions no artefact reaches: give each an artefact (an example, "
        "a CLI command, a CI step) or list it with a reason in "
        f"{ALLOWLIST.name}:\n  " + "\n  ".join(new)
    )
    assert not reached, (
        f"listed in {ALLOWLIST.name} but reached (or deleted): take them "
        "off the list:\n  " + "\n  ".join(reached)
    )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:
        print(json.dumps(_probe(Path(sys.argv[2]))))
    else:
        print("\n".join(unreached()))
