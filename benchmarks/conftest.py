"""Benchmark-suite plumbing.

Each benchmark regenerates one of the paper's tables/figures and registers
the rendered artifact here; the terminal summary prints them all, so
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures both
the timings and the reproduced results.

Benchmarks additionally record machine-readable numbers via
:func:`record_bench` (timed rows via :func:`record_timed`); at session end
they are written to the repo-root snapshot file (see
``docs/PERFORMANCE.md`` for how to read it).  The
filename comes from the ``BENCH_SNAPSHOT`` environment variable (default
``BENCH_PR16.json``), so each PR's CI can keep its own snapshot without
editing this file.  ``repro-batchsim bench-trend`` diffs two snapshots
(the CI perf-regression gate).  The snapshot always carries ``cpu_count`` —
wall-clock comparisons (serial vs parallel campaigns in particular) are
meaningless without it.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

_REPORTS: list[tuple[str, str]] = []
_BENCH: dict[str, dict[str, dict]] = {}

#: repo-root snapshot file for this PR's performance numbers; override the
#: filename with the BENCH_SNAPSHOT environment variable
BENCH_SNAPSHOT = Path(__file__).resolve().parent.parent / os.environ.get(
    "BENCH_SNAPSHOT", "BENCH_PR16.json"
)


def usable_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports installed CPUs, but CI runners and cgroup
    containers routinely pin the process to a subset; the scheduling
    affinity mask is what bounds parallel speedup.  Falls back to
    ``os.cpu_count()`` on platforms without ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def register_report(title: str, text: str) -> None:
    """Register a rendered artifact for the end-of-run summary (deduped)."""
    if all(existing_title != title for existing_title, _ in _REPORTS):
        _REPORTS.append((title, text))


def record_bench(group: str, name: str, **values) -> None:
    """Record one benchmark measurement for the ``BENCH_SNAPSHOT`` file.

    ``group``/``name`` mirror the pytest-benchmark group and test; ``values``
    are plain JSON-serialisable numbers (seconds, counts, ratios).  Repeat
    calls with the same name overwrite — the snapshot keeps the last run.
    """
    _BENCH.setdefault(group, {})[name] = values


def record_timed(
    group: str, name: str, benchmark, *, per_second=None, **values
) -> None:
    """:func:`record_bench` with the benchmark's mean time as ``wall_seconds``.

    ``per_second`` maps names to counts, each recorded as count / mean.
    Records nothing when the run took no timings (``--benchmark-disable``
    leaves ``benchmark.stats`` None), so the test's assertions still run.
    """
    if benchmark.stats is None:
        return
    mean = benchmark.stats.stats.mean
    rates = {key: count / mean for key, count in (per_second or {}).items()}
    record_bench(group, name, wall_seconds=mean, **rates, **values)


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH:
        return
    payload = {
        "schema": "repro-bench/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": usable_cpu_count(),
        "cpu_count_installed": os.cpu_count(),
        "groups": _BENCH,
    }
    BENCH_SNAPSHOT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def pytest_terminal_summary(terminalreporter):
    if _BENCH:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"bench snapshot written to {BENCH_SNAPSHOT}")
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "reproduced paper artifacts")
    for title, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_sep("-", title)
        for line in text.splitlines():
            terminalreporter.write_line(line)
