"""Run one ESP configuration end to end and collect its metrics."""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from functools import lru_cache

from repro.experiments.configs import ESPConfiguration, configuration
from repro.metrics.collector import WorkloadMetrics
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload

__all__ = [
    "ESPResult",
    "run_esp_configuration",
    "run_esp_configuration_cached",
]

#: the paper's testbed: 15 compute nodes × 2× quad-core Xeon X5570
DEFAULT_NODES = 15
DEFAULT_CORES_PER_NODE = 8
DEFAULT_SEED = 2014


@dataclass(frozen=True)
class ESPResult:
    """Outcome of one configuration run."""

    configuration: ESPConfiguration
    metrics: WorkloadMetrics
    scheduler_stats: dict
    #: the telemetry facade the run recorded into (None without one)
    telemetry: object | None = None
    #: the run's event trace (its bare event list once the result is
    #: stripped for a worker process's return trip)
    trace: object | None = None
    #: fault-injector report (``FaultInjector.report()``) when the run was
    #: executed under a fault model, else None
    resilience: dict | None = None

    @property
    def name(self) -> str:
        return self.configuration.name

    def table2_row(self, baseline: "ESPResult | None" = None) -> dict:
        """The Table II row for this run (throughput increase vs baseline)."""
        m = self.metrics
        row = {
            "config": self.name,
            "time_min": m.workload_time_minutes,
            "satisfied_dyn_jobs": m.satisfied_dyn_jobs,
            "util_pct": 100.0 * m.utilization,
            "throughput_jobs_per_min": m.throughput_jobs_per_minute,
        }
        if baseline is not None and baseline is not self:
            row["tp_increase_pct"] = m.throughput_increase_vs(baseline.metrics)
        return row


def run_esp_configuration(
    configuration: ESPConfiguration,
    *,
    num_nodes: int = DEFAULT_NODES,
    cores_per_node: int = DEFAULT_CORES_PER_NODE,
    seed: int = DEFAULT_SEED,
    walltime_factor: float = 1.0,
    telemetry=None,
    trace_maxlen: int | None = None,
    fault_model=None,
    via_service: bool = False,
) -> ESPResult:
    """Simulate the (dynamic) ESP workload under one configuration.

    Pass a :class:`repro.obs.Telemetry` to collect live metrics, sampled
    time series and spans for the run; ``trace_maxlen`` bounds the event
    trace to a ring of that many events.  ``fault_model`` runs the
    workload under seeded fault injection (``repro.faults``).

    ``via_service`` submits the workload through
    :class:`repro.service.SchedulerService` on the simulator backend and
    drains it instead of running the system directly.  By the service's
    bit-identity contract the result is the same either way (same
    schedules, same stats, byte-equal trace/ledger exports); the
    ``table2 --via-service`` CI golden check and ``tests/test_service.py``
    compare the two paths.
    """
    system = BatchSystem(
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        config=configuration.maui,
        telemetry=telemetry,
        trace_maxlen=trace_maxlen,
        fault_model=fault_model,
    )
    workload = make_esp_workload(
        total_cores=num_nodes * cores_per_node,
        dynamic=configuration.dynamic_workload,
        seed=seed,
        walltime_factor=walltime_factor,
    )
    if via_service:
        asyncio.run(_drain_through_service(system, workload))
    else:
        workload.submit_to(system)
        system.run(max_events=10_000_000 if fault_model is not None else 5_000_000)
    if system.server.queue or system.server.active_count:
        raise RuntimeError(
            f"{configuration.name}: workload did not drain "
            f"({len(system.server.queue)} queued)"
        )
    return ESPResult(
        configuration=configuration,
        metrics=system.metrics(),
        scheduler_stats=dict(system.scheduler.stats),
        telemetry=telemetry,
        trace=system.trace,
        resilience=(
            system.fault_injector.report()
            if system.fault_injector is not None
            else None
        ),
    )


async def _drain_through_service(system: BatchSystem, workload) -> None:
    from repro.service import SchedulerService, SimBackend

    async with SchedulerService(SimBackend(system)) as service:
        for spec in workload:
            await service.submit(spec)
        await service.drain()


def run_esp_configuration_cached(
    config_name: str,
    *,
    num_nodes: int = DEFAULT_NODES,
    cores_per_node: int = DEFAULT_CORES_PER_NODE,
    seed: int = DEFAULT_SEED,
    trace_maxlen: int | None = None,
    **telemetry,
) -> ESPResult:
    """Memoised runner for the four canonical configurations.

    The figure harnesses (8-11) share runs with Table II instead of
    re-simulating the same workload several times, and the CLI's
    observability commands share their Dyn-HP run the same way.  Keywords
    beyond the machine, seed and ``trace_maxlen`` are the
    :class:`repro.obs.Telemetry` the run records into (none: no
    telemetry); they must be hashable.
    """
    return _cached(
        config_name,
        num_nodes,
        cores_per_node,
        seed,
        trace_maxlen,
        tuple(sorted(telemetry.items())),
    )


@lru_cache(maxsize=16)
def _cached(
    config_name: str,
    num_nodes: int,
    cores_per_node: int,
    seed: int,
    trace_maxlen: int | None,
    telemetry: tuple,
) -> ESPResult:
    from repro.obs import Telemetry

    return run_esp_configuration(
        configuration(config_name),
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        seed=seed,
        telemetry=Telemetry(**dict(telemetry)) if telemetry else None,
        trace_maxlen=trace_maxlen,
    )
