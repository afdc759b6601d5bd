"""Picklable run specs + module-level worker functions for the campaigns.

Every experiment driver that fans out over the exec engine defines its unit
of work here: a frozen dataclass (the *spec*, cheap to pickle into a worker
process) and a module-level function that simulates it and returns a plain
result (row dicts or an :class:`~repro.experiments.runner.ESPResult`).

The drivers call these same functions on their serial path (``workers=1``),
which is what makes parallel output bit-identical to serial output: there is
exactly one implementation of "run this spec".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SweepRunSpec",
    "Table2RunSpec",
    "Table2InstrumentedSpec",
    "CampaignRunSpec",
    "ScalingRunSpec",
    "ResilienceRunSpec",
    "run_sweep_row",
    "run_table2_result",
    "run_table2_instrumented_result",
    "run_campaign_row",
    "run_scaling_row",
    "run_resilience_row",
]


def _configuration(name: str):
    from repro.experiments.configs import all_configurations

    for configuration in all_configurations():
        if configuration.name == name:
            return configuration
    raise ValueError(f"unknown ESP configuration: {name!r}")


# ----------------------------------------------------------------------
# seed sweep (Table II robustness)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRunSpec:
    """One (configuration, seed) cell of the seed sweep."""

    config_name: str
    seed: int
    trace_maxlen: int | None = None


def run_sweep_row(spec: SweepRunSpec) -> dict:
    """Simulate one sweep cell and return its metric row."""
    from repro.experiments.runner import run_esp_configuration

    telemetry = None
    if spec.trace_maxlen is not None:
        from repro.obs import Telemetry

        telemetry = Telemetry(sample_interval=None)
    run = run_esp_configuration(
        _configuration(spec.config_name),
        seed=spec.seed,
        telemetry=telemetry,
        trace_maxlen=spec.trace_maxlen,
    )
    m = run.metrics
    return {
        "time_min": m.workload_time_minutes,
        "satisfied": m.satisfied_dyn_jobs,
        "util_pct": 100.0 * m.utilization,
        "throughput": m.throughput_jobs_per_minute,
        "mean_wait": m.mean_wait,
    }


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table2RunSpec:
    """One Table II configuration run (full ESPResult comes back)."""

    config_name: str
    seed: int
    num_nodes: int = 15
    cores_per_node: int = 8
    shards: int | None = None
    #: drive the run through the scheduler service (repro.service) instead
    #: of directly — results stay identical either way
    via_service: bool = False


def run_table2_result(spec: Table2RunSpec):
    """Simulate one configuration and return the (picklable) ESPResult."""
    from repro.experiments.runner import (
        run_esp_configuration,
        run_esp_configuration_via_service,
    )
    from repro.experiments.table2 import with_shards

    runner = (
        run_esp_configuration_via_service if spec.via_service else run_esp_configuration
    )
    return runner(
        with_shards(_configuration(spec.config_name), spec.shards),
        num_nodes=spec.num_nodes,
        cores_per_node=spec.cores_per_node,
        seed=spec.seed,
    )


@dataclass(frozen=True)
class Table2InstrumentedSpec:
    """One fully instrumented Table II run, dumps written in-worker.

    The worker calls the same ``_run_instrumented_config`` the serial loop
    uses — one implementation writes the JSONL dumps, which is what makes
    ``-j N`` exports byte-identical to serial ones (the CI golden SLO
    check relies on this).  ``slo`` is a tuple of objective strings so the
    spec stays hashable and cheap to pickle.
    """

    config_name: str
    seed: int
    out_dir: str | None
    decision_ledger: bool = False
    profile: bool = False
    window_width: float = 600.0
    shards: int | None = None
    slo: tuple[str, ...] | None = None
    #: drive the run through the scheduler service (repro.service) instead
    #: of directly — dumps must stay byte-identical either way
    via_service: bool = False


def run_table2_instrumented_result(spec: Table2InstrumentedSpec):
    """Run one instrumented configuration; dumps land on disk in-worker.

    The returned ESPResult is stripped of its telemetry and trace — both
    hold engine/sampler references that are meaningless (and expensive to
    pickle) across the process boundary; the dumps carry the telemetry.
    """
    import dataclasses

    from repro.experiments.table2 import _run_instrumented_config

    result = _run_instrumented_config(
        spec.config_name,
        spec.seed,
        spec.out_dir,
        decision_ledger=spec.decision_ledger,
        profile=spec.profile,
        window_width=spec.window_width,
        shards=spec.shards,
        slo=spec.slo,
        via_service=spec.via_service,
    )
    result = dataclasses.replace(result, telemetry=None, trace=None)
    # the metrics object keeps its own telemetry/trace backrefs (sampler
    # closures over live components, subscriber callbacks) — sever them
    # before pickling, but keep the bare event list: utilization replays
    # it lazily on the parent side (render_table2 needs it)
    result.metrics._telemetry = None
    result.metrics._trace = list(result.metrics._trace)
    return result


# ----------------------------------------------------------------------
# random campaigns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignRunSpec:
    """One seed of a random mixed-workload campaign."""

    num_jobs: int
    seed: int
    num_nodes: int = 15
    cores_per_node: int = 8
    config: object | None = None  # a MauiConfig (dataclass, picklable) or None
    trace_maxlen: int | None = None
    evolving_share: float = 0.3
    mean_interarrival: float = 60.0


def run_campaign_row(spec: CampaignRunSpec) -> dict:
    """Simulate one campaign seed and return its summary row."""
    from repro.obs import Telemetry
    from repro.system import BatchSystem
    from repro.workloads.random_workload import make_random_workload

    telemetry = Telemetry()
    system = BatchSystem(
        spec.num_nodes,
        spec.cores_per_node,
        spec.config,
        telemetry=telemetry,
        trace_maxlen=spec.trace_maxlen,
    )
    make_random_workload(
        spec.num_jobs,
        spec.num_nodes * spec.cores_per_node,
        evolving_share=spec.evolving_share,
        mean_interarrival=spec.mean_interarrival,
        seed=spec.seed,
    ).submit_to(system)
    system.run(max_events=5_000_000)
    m = system.metrics()
    return {
        "seed": spec.seed,
        "completed": m.completed_jobs,
        "satisfied": m.satisfied_dyn_jobs,
        "util_pct": 100.0 * m.utilization,
        "mean_wait": m.mean_wait,
        "trace_events": len(system.trace),
        "trace_dropped": system.trace.dropped,
    }


# ----------------------------------------------------------------------
# resilience campaign (ESP under fault injection)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceRunSpec:
    """One (configuration, fault model) cell of the resilience experiment.

    Carries the full :class:`repro.faults.FaultModel` (frozen, picklable),
    so the worker needs nothing beyond the spec — parallel runs are
    bit-identical to serial by the usual exec-engine argument.
    """

    config_name: str
    seed: int
    fault_model: object  # a repro.faults.FaultModel
    num_nodes: int = 15
    cores_per_node: int = 8


def run_resilience_row(spec: ResilienceRunSpec) -> dict:
    """Simulate one resilience cell and return its machine-readable row."""
    from repro.experiments.runner import run_esp_configuration

    run = run_esp_configuration(
        _configuration(spec.config_name),
        num_nodes=spec.num_nodes,
        cores_per_node=spec.cores_per_node,
        seed=spec.seed,
        fault_model=spec.fault_model,
    )
    m = run.metrics
    row = {
        "config": spec.config_name,
        "seed": spec.seed,
        "fault_seed": spec.fault_model.seed,
        "completed": m.completed_jobs,
        "satisfied": m.satisfied_dyn_jobs,
        "time_min": m.workload_time_minutes,
        "util_pct": 100.0 * m.utilization,
        "throughput": m.throughput_jobs_per_minute,
        "mean_wait": m.mean_wait,
    }
    assert run.resilience is not None
    row.update(run.resilience)
    return row


# ----------------------------------------------------------------------
# scaling bench
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalingRunSpec:
    """One machine size of the ESP scaling bench (Dyn-HP configuration)."""

    nodes: int
    cores_per_node: int = 8
    seed: int = 2014


def run_scaling_row(spec: ScalingRunSpec) -> dict:
    """Simulate the dynamic ESP workload at one machine scale."""
    from repro.maui.config import MauiConfig
    from repro.system import BatchSystem
    from repro.workloads.esp import make_esp_workload

    system = BatchSystem(
        spec.nodes,
        spec.cores_per_node,
        MauiConfig(reservation_depth=5, reservation_delay_depth=5),
    )
    make_esp_workload(
        spec.nodes * spec.cores_per_node, dynamic=True, seed=spec.seed
    ).submit_to(system)
    system.run(max_events=5_000_000)
    m = system.metrics()
    return {
        "nodes": spec.nodes,
        "completed": m.completed_jobs,
        "satisfied": m.satisfied_dyn_jobs,
        "util_pct": 100.0 * m.utilization,
        "workload_time": m.workload_time,
        "time_min": m.workload_time_minutes,
        "iterations": system.scheduler.stats["iterations"],
    }
