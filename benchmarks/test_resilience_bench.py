"""Resilience benchmarks: cost and outcomes of the fault-injection paths.

Benches the fault subsystem the same way the observability layer is
benched: a faulted Dyn-HP run against the clean baseline, recording both
the wall-clock cost of injection (failure scheduling, requeue storms,
delivery-retry backoff) and the headline recovery outcomes so
``bench-trend`` catches behavioural drift (e.g. a repair-path change that
silently doubles requeues).
"""

import pytest

from benchmarks.conftest import record_timed, register_report
from repro.experiments.configs import configuration
from repro.experiments.resilience import default_fault_model
from repro.experiments.runner import run_esp_configuration

_DYN_HP = configuration("Dyn-HP")


@pytest.mark.benchmark(group="resilience")
def test_faulted_dyn_hp_run(benchmark):
    """Dyn-HP under the default fault model (node MTBF + delivery drops)."""
    model = default_fault_model(fault_seed=2014)

    def run():
        return run_esp_configuration(_DYN_HP, seed=2014, fault_model=model)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    resilience = result.resilience
    assert resilience is not None
    assert resilience["node_failures"] > 0
    record_timed(
        "resilience",
        "faulted_run",
        benchmark,
        completed=result.metrics.completed_jobs,
        node_failures=resilience["node_failures"],
        jobs_requeued=resilience["jobs_requeued"],
        delivery_drops=resilience["delivery_drops"],
        lost_core_seconds=resilience["lost_core_seconds"],
    )
    register_report(
        "Resilience bench — Dyn-HP under default fault model",
        "\n".join(
            f"  {key:<24} {value}"
            for key, value in sorted(resilience.items())
            if isinstance(value, (int, float))
        ),
    )


@pytest.mark.benchmark(group="resilience")
def test_clean_baseline_run(benchmark):
    """The same configuration with no fault model, for cost comparison."""
    result = benchmark.pedantic(
        lambda: run_esp_configuration(_DYN_HP, seed=2014), rounds=3, iterations=1
    )
    assert result.metrics.completed_jobs == 230
    record_timed(
        "resilience",
        "clean_baseline",
        benchmark,
        completed=result.metrics.completed_jobs,
    )
