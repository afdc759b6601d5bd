"""Resilience experiment: the ESP configurations under failure injection.

Reruns the four canonical DFS policy configurations (Table II) with a
seeded :class:`repro.faults.FaultModel` driving node failures and
transient grant-delivery drops, and reports utilization, throughput,
lost work, requeue counts and the effective MTTR per configuration —
how much of the paper's fault-tolerance claim (Section I: dynamic
allocation helps "by allocating spare nodes to affected jobs") each
policy actually delivers.

Everything is deterministic: same (workload seed, fault seed) ⇒
byte-identical rows, serial or parallel, which the CI fault-injection
golden check (`cmp` of two exports) relies on.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

from repro.experiments.configs import ESPConfiguration, all_configurations
from repro.experiments.runner import run_esp_configuration
from repro.faults import FaultModel
from repro.metrics.report import render_table

__all__ = [
    "default_fault_model",
    "run_resilience",
    "resilience_row",
    "render_resilience",
    "export_resilience_json",
]

#: mirrors the experiment defaults exposed by the CLI: a node fails
#: roughly every 100 minutes of uptime, repairs take ~15 minutes, and
#: one in twenty grant deliveries is dropped (then retried)
DEFAULT_MTBF = 6000.0
DEFAULT_MTTR = 900.0
DEFAULT_DELIVERY_FAILURE_RATE = 0.05


def default_fault_model(
    fault_seed: int = 2014,
    *,
    mtbf: float | None = DEFAULT_MTBF,
    mttr: float = DEFAULT_MTTR,
    distribution: str = "exponential",
    burst_probability: float = 0.0,
    delivery_failure_rate: float = DEFAULT_DELIVERY_FAILURE_RATE,
) -> FaultModel:
    """The fault model the CLI builds from its flags."""
    return FaultModel(
        seed=fault_seed,
        mtbf=mtbf,
        mttr=mttr,
        distribution=distribution,
        burst_probability=burst_probability,
        grant_delivery_failure_rate=delivery_failure_rate,
    )


def run_resilience(
    seed: int = 2014,
    *,
    fault_model: FaultModel | None = None,
    workers: int = 1,
    telemetry=None,
) -> list[dict]:
    """Run every configuration under the fault model; rows in config order."""
    from repro.exec import map_specs

    if fault_model is None:
        fault_model = default_fault_model()
    return map_specs(
        partial(resilience_row, seed=seed, fault_model=fault_model),
        all_configurations(),
        workers=workers,
        telemetry=telemetry,
        label="resilience",
    )


def resilience_row(
    configuration: ESPConfiguration, *, seed: int, fault_model: FaultModel
) -> dict:
    """Simulate one configuration under the fault model; its machine-readable row."""
    run = run_esp_configuration(configuration, seed=seed, fault_model=fault_model)
    m = run.metrics
    row = {
        "config": configuration.name,
        "seed": seed,
        "fault_seed": fault_model.seed,
        "completed": m.completed_jobs,
        "satisfied": m.satisfied_dyn_jobs,
        "time_min": m.workload_time_minutes,
        "util_pct": 100.0 * m.utilization,
        "throughput": m.throughput_jobs_per_minute,
        "mean_wait": m.mean_wait,
    }
    row.update(run.resilience)
    return row


def render_resilience(rows: list[dict]) -> str:
    headers = [
        "Config",
        "Time[min]",
        "Util[%]",
        "TP[jobs/min]",
        "Fails",
        "Requeues",
        "Lost[core-h]",
        "MTTR_eff[s]",
        "Drops",
        "Degraded",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row["config"],
                f"{row['time_min']:.2f}",
                f"{row['util_pct']:.2f}",
                f"{row['throughput']:.2f}",
                row["node_failures"],
                row["jobs_requeued"],
                f"{row['lost_core_seconds'] / 3600.0:.2f}",
                f"{row['effective_mttr']:.0f}",
                row["delivery_drops"],
                row["delivery_degraded"],
            ]
        )
    return render_table(
        headers, body, title="Resilience — ESP under failure injection"
    )


def export_resilience_json(
    rows: list[dict], out_dir: str | Path, *, fault_model: FaultModel, seed: int
) -> Path:
    """Write the rows (plus the generating model) as canonical JSON.

    Key order and float formatting are fully determined by the row
    values, so identical runs produce byte-identical files — the CI
    determinism check ``cmp``'s two of these.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "resilience.json"
    document = {
        "schema": "repro.resilience/1",
        "seed": seed,
        "fault_model": {
            "seed": fault_model.seed,
            "mtbf": fault_model.mtbf,
            "mttr": fault_model.mttr,
            "distribution": fault_model.distribution,
            "weibull_shape": fault_model.weibull_shape,
            "burst_probability": fault_model.burst_probability,
            "burst_size": fault_model.burst_size,
            "horizon": fault_model.horizon,
            "grant_delivery_failure_rate": fault_model.grant_delivery_failure_rate,
            "delivery_max_retries": fault_model.delivery_max_retries,
            "delivery_retry_backoff": fault_model.delivery_retry_backoff,
        },
        "rows": rows,
    }
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
    return path
