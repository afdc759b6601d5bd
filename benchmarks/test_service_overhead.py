"""Scheduler-service overhead: the asyncio front-end must stay cheap.

The service wraps every ESP run in an event loop, a consumer task and one
command round-trip per submission, then drains the engine in batches
instead of one monolithic ``engine.run``.  All of that is bookkeeping on
top of the exact same policy work — so a via-service run must stay within
2x of the direct run's wall time (in practice the overhead is a few
percent; the 2x bound keeps the gate robust on noisy CI runners).
"""

import timeit

import pytest

from benchmarks.conftest import record_bench, register_report
from repro.experiments.configs import configuration
from repro.experiments.runner import run_esp_configuration

_DYN_HP = configuration("Dyn-HP")


def _run_direct():
    return run_esp_configuration(_DYN_HP, seed=2014)


def _run_via_service():
    return run_esp_configuration(_DYN_HP, seed=2014, via_service=True)


@pytest.mark.benchmark(group="service")
def test_direct_run(benchmark):
    result = benchmark.pedantic(_run_direct, rounds=3, iterations=1)
    assert result.metrics.completed_jobs == 230


@pytest.mark.benchmark(group="service")
def test_via_service_run(benchmark):
    result = benchmark.pedantic(_run_via_service, rounds=3, iterations=1)
    assert result.metrics.completed_jobs == 230


def test_service_overhead_bounded():
    direct = min(timeit.repeat(_run_direct, number=1, repeat=3))
    via = min(timeit.repeat(_run_via_service, number=1, repeat=3))
    ratio = via / direct
    record_bench(
        "service",
        "overhead",
        direct_s=direct,
        via_service_s=via,
        ratio=ratio,
    )
    register_report(
        "Scheduler-service overhead (Dyn-HP, 230 jobs)",
        "\n".join(
            [
                f"  direct BatchSystem run : {direct * 1e3:>9.1f} ms",
                f"  via SchedulerService   : {via * 1e3:>9.1f} ms",
                f"  ratio                  : {ratio:>9.2f}x (bound: 2.00x)",
            ]
        ),
    )
    assert ratio < 2.0, (
        f"service run took {via:.3f}s vs {direct:.3f}s direct "
        f"({ratio:.2f}x, bound 2.0x)"
    )
