"""Acceptance: Table II telemetry artifacts recompute the collector's values.

An instrumented Table II run dumps, per configuration, a JSONL event trace
and a Prometheus metrics snapshot.  This test closes the loop: parsing those
files back must reproduce the exact utilization and satisfied-dynamic-job
counts that :class:`repro.metrics.collector.WorkloadMetrics` reports — the
streamed telemetry and the post-hoc metrics are two views of one truth.
"""

import dataclasses
import re

import pytest

from repro.experiments.table2 import run_table2_instrumented
from repro.metrics.stats import busy_core_seconds
from repro.obs import read_jsonl
from repro.obs.exporters import parse_prometheus_text

TOTAL_CORES = 15 * 8


@pytest.fixture(scope="module")
def instrumented(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("telemetry")
    results = run_table2_instrumented(seed=2014, out_dir=out_dir, decision_ledger=True)
    return out_dir, results


def test_all_four_configurations_dump_artifacts(instrumented):
    out_dir, results = instrumented
    assert len(results) == 4
    for result in results:
        assert (out_dir / f"{result.name}.trace.jsonl").exists()
        assert (out_dir / f"{result.name}.metrics.prom").exists()


def test_utilization_recomputes_from_jsonl(instrumented):
    out_dir, results = instrumented
    for result in results:
        restored = read_jsonl(str(out_dir / f"{result.name}.trace.jsonl"))
        m = result.metrics
        busy = busy_core_seconds(restored, m.first_submit, m.last_end)
        recomputed = busy / (TOTAL_CORES * m.workload_time)
        assert recomputed == pytest.approx(m.utilization, rel=1e-12), result.name


def test_satisfied_jobs_recompute_from_prometheus(instrumented):
    out_dir, results = instrumented
    for result in results:
        prom = parse_prometheus_text(
            (out_dir / f"{result.name}.metrics.prom").read_text()
        )
        assert prom["repro_dyn_satisfied_jobs_total"] == (
            result.metrics.satisfied_dyn_jobs
        ), result.name


def test_prometheus_counters_match_scheduler_and_server_state(instrumented):
    out_dir, results = instrumented
    for result in results:
        prom = parse_prometheus_text(
            (out_dir / f"{result.name}.metrics.prom").read_text()
        )
        stats = result.scheduler_stats
        assert prom["repro_sched_iterations_total"] == stats["iterations"]
        assert prom["repro_dyn_grants_total"] == stats["dyn_granted"]
        assert prom["repro_dyn_rejects_total"] == stats["dyn_rejected"]
        assert prom["repro_jobs_submitted_total"] == len(result.metrics.records)
        assert prom["repro_jobs_completed_total"] == result.metrics.completed_jobs
        # every run ends idle: live gauges must agree
        assert prom["repro_busy_cores"] == 0
        assert prom["repro_queue_depth"] == 0
        assert prom["repro_running_jobs"] == 0


def test_jsonl_trace_equals_in_memory_trace(instrumented):
    out_dir, results = instrumented
    for result in results:
        restored = read_jsonl(str(out_dir / f"{result.name}.trace.jsonl"))
        assert list(restored) == list(result.trace), result.name


def _renumbered(path) -> str:
    """The dump with job ids renumbered by first appearance.

    Job ids come from a process-global counter, so a configuration run in
    a worker process numbers its jobs from wherever that process's counter
    stood; everything else in the dump is fixed by (configuration, seed).
    """
    ids: dict[str, str] = {}
    return re.sub(
        r"job\.\d+",
        lambda m: ids.setdefault(m.group(0), f"job.#{len(ids)}"),
        path.read_text(),
    )


def test_worker_processes_give_the_serial_results_and_dumps(
    instrumented, tmp_path
):
    """``workers=2`` runs the same worker as ``workers=1``: equal Table II
    rows, results of the same shape, and the same dumps."""
    out_dir, serial = instrumented
    parallel = run_table2_instrumented(
        seed=2014, out_dir=tmp_path, decision_ledger=True, workers=2
    )
    assert [r.table2_row(serial[0]) for r in serial] == [
        r.table2_row(parallel[0]) for r in parallel
    ]
    for a, b in zip(serial, parallel):
        for field in dataclasses.fields(a):
            assert type(getattr(a, field.name)) is type(getattr(b, field.name))
        assert a.telemetry is None and type(a.trace) is list
        name = a.name
        assert (out_dir / f"{name}.metrics.prom").read_bytes() == (
            tmp_path / f"{name}.metrics.prom"
        ).read_bytes()
        for suffix in ("trace", "ledger"):
            assert _renumbered(out_dir / f"{name}.{suffix}.jsonl") == _renumbered(
                tmp_path / f"{name}.{suffix}.jsonl"
            ), (name, suffix)
