"""The guaranteeing approach: preallocate the evolving job's maximum need.

CooRMv2 (paper ref. [20]) requires evolving jobs to declare at submission the
resources they *may* need; the scheduler preallocates them so every dynamic
request can be granted.  Section II-B argues this wastes resources and
starves rigid jobs in the rigid-dominated workloads typical today: the extra
cores are blocked (and charged) from job start even though the application
only grows — if at all — deep into its run.

We reproduce that argument quantitatively on the dynamic ESP workload: every
F-J job requests ``cores + 4`` up front and behaves like a dynamic job whose
request is granted instantly at its trigger point, i.e. it runs for
``0.16·SET + 0.84·SET·c/(c+4)`` seconds.  The cores sit idle for the first
16 % — the *wasted reservation* the summary reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.maui.config import MauiConfig
from repro.metrics.collector import WorkloadMetrics
from repro.system import BatchSystem
from repro.workloads.esp import (
    ESP_EXTRA_CORES,
    ESP_JOB_TYPES,
    ESP_REQUEST_FRACTION,
    ESPJobType,
    _esp_schedule,
    esp_job_spec,
    expected_dynamic_runtime,
)
from repro.workloads.spec import JobSpec, Workload

__all__ = [
    "make_guaranteeing_esp_workload",
    "run_guaranteeing_esp",
    "GuaranteeingResult",
]


def make_guaranteeing_esp_workload(
    total_cores: int = 120, *, seed: int = 2014, walltime_factor: float = 1.0
) -> Workload:
    """The ESP workload with preallocated (max-sized) evolving jobs.

    Same job order, counts and submission protocol as
    :func:`repro.workloads.esp.make_esp_workload` for the same seed, so
    results are directly comparable.
    """

    def regular(jtype: ESPJobType, submit_time: float, cores: int) -> JobSpec:
        runtime = jtype.static_execution_time
        if jtype.is_evolving:
            runtime = expected_dynamic_runtime(
                runtime, cores, ESP_EXTRA_CORES, ESP_REQUEST_FRACTION
            )
            cores += ESP_EXTRA_CORES
        return esp_job_spec(
            submit_time, cores, runtime, walltime_factor, jtype.user,
            esp_type=jtype.letter,
        )

    return _esp_schedule(
        "guaranteeing-esp", regular, total_cores, seed=seed,
        walltime_factor=walltime_factor,
    )


@dataclass(frozen=True)
class GuaranteeingResult:
    metrics: WorkloadMetrics
    #: core-seconds preallocated but unused before the trigger point
    wasted_reserved_core_seconds: float


def run_guaranteeing_esp(
    *, num_nodes: int = 15, cores_per_node: int = 8, seed: int = 2014
) -> GuaranteeingResult:
    """Simulate the guaranteeing baseline on the paper's machine."""
    system = BatchSystem(
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        config=MauiConfig(reservation_depth=5, reservation_delay_depth=5),
    )
    make_guaranteeing_esp_workload(
        total_cores=num_nodes * cores_per_node, seed=seed
    ).submit_to(system)
    system.run(max_events=5_000_000)
    wasted = sum(
        ESP_EXTRA_CORES * ESP_REQUEST_FRACTION * t.static_execution_time * t.count
        for t in ESP_JOB_TYPES
        if t.is_evolving
    )
    return GuaranteeingResult(
        metrics=system.metrics(), wasted_reserved_core_seconds=wasted
    )
