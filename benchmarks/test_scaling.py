"""Scaling — simulator cost and schedule quality vs machine size.

ESP is defined in machine fractions, so the same 230-job workload scales to
any core count.  This bench runs the Dyn-HP configuration on machines from
8x8 to 64x8 cores, reporting both simulator wall-clock cost (does the
availability-profile machinery stay tractable?) and schedule quality (ESP
efficiency: ideal work time over actual makespan).

Each scale is one :func:`~repro.experiments.runner.run_esp_configuration`
call, the same run every experiment makes.
"""

import pytest

from benchmarks.conftest import record_timed, register_report
from repro.experiments.configs import configuration
from repro.experiments.runner import run_esp_configuration
from repro.metrics.report import render_table
from repro.workloads.esp import ESP_JOB_TYPES, esp_core_count

SIZES = [8, 15, 32, 64]  # nodes of 8 cores
_rows: dict[int, list] = {}


def run_at_scale(nodes: int, cores_per_node: int = 8, seed: int = 2014) -> dict:
    """Simulate the dynamic ESP workload (Dyn-HP) at one machine scale."""
    run = run_esp_configuration(
        configuration("Dyn-HP"), num_nodes=nodes, cores_per_node=cores_per_node, seed=seed
    )
    m = run.metrics
    return {
        "nodes": nodes,
        "completed": m.completed_jobs,
        "satisfied": m.satisfied_dyn_jobs,
        "util_pct": 100.0 * m.utilization,
        "workload_time": m.workload_time,
        "time_min": m.workload_time_minutes,
        "iterations": run.scheduler_stats["iterations"],
    }


def ideal_work_seconds(total_cores: int) -> float:
    """Sum of cores x SET over the workload (the ESP 'ideal time' numerator)."""
    return sum(
        esp_core_count(t.fraction, total_cores) * t.static_execution_time * t.count
        for t in ESP_JOB_TYPES
    )


@pytest.mark.slow
@pytest.mark.benchmark(group="scaling")
@pytest.mark.parametrize("nodes", SIZES)
def test_esp_at_machine_scale(benchmark, nodes):
    row = benchmark.pedantic(run_at_scale, args=(nodes,), rounds=1, iterations=1)
    assert row["completed"] == 230
    total_cores = nodes * 8
    efficiency = ideal_work_seconds(total_cores) / (total_cores * row["workload_time"])
    record_timed(
        "scaling", f"esp_dyn_hp_{nodes}x8",
        benchmark,
        iterations=row["iterations"],
        utilization_pct=row["util_pct"],
    )
    _rows[nodes] = [
        f"{nodes}x8",
        f"{row['time_min']:.1f}",
        row["satisfied"],
        f"{row['util_pct']:.1f}",
        f"{100 * efficiency:.1f}",
        row["iterations"],
    ]
    if len(_rows) == len(SIZES):
        register_report(
            "Scaling — dynamic ESP (Dyn-HP) vs machine size",
            render_table(
                ["Machine", "Time[min]", "Satisfied", "Util[%]", "ESP efficiency[%]", "Iterations"],
                [_rows[n] for n in SIZES],
            )
            + "\n  note: the workload is defined in machine fractions, so job"
            "\n  sizes grow with the machine; the submission protocol (30s"
            "\n  spacing) increasingly dominates the makespan at larger scales.",
        )
