"""Parallel campaigns must be byte-identical to serial ones.

The exec engine's whole contract is that ``workers=N`` only changes wall
clock, never results.  These tests run the real seed sweep both ways and
compare the full float bit patterns (via ``json.dumps``, which round-trips
doubles through ``repr``) and the rendered report text.
"""

import json

import pytest

from repro.experiments.sweep import render_sweep, run_seed_sweep

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("seeds", [[5, 11], [3]], ids=["two-seeds", "one-seed"])
def test_sweep_parallel_matches_serial(seeds):
    serial = run_seed_sweep(seeds, workers=1)
    parallel = run_seed_sweep(seeds, workers=4)
    assert serial.seeds == parallel.seeds
    assert list(serial.samples) == list(parallel.samples)  # config order too
    assert json.dumps(serial.samples) == json.dumps(parallel.samples)
    assert render_sweep(serial) == render_sweep(parallel)


def test_campaign_parallel_matches_serial():
    from repro.workloads.random_workload import run_random_campaign

    serial = run_random_campaign(60, seeds=[0, 1, 2], workers=1)
    parallel = run_random_campaign(60, seeds=[0, 1, 2], workers=3)
    assert json.dumps(serial) == json.dumps(parallel)


def test_table2_parallel_matches_fresh_serial():
    from repro.experiments.configs import all_configurations
    from repro.experiments.runner import run_esp_configuration
    from repro.experiments.table2 import run_table2

    parallel = run_table2(workers=2)
    serial = [run_esp_configuration(c, seed=2014) for c in all_configurations()]
    def decisions(stats):
        # everything except actual wall-clock timers, which legitimately vary
        return {k: v for k, v in stats.items() if k != "dyn_handle_seconds"}

    for a, b in zip(serial, parallel):
        assert a.configuration.name == b.configuration.name
        # job ids/seqs come from a process-global counter and differ between
        # interpreter instances; compare the headline metrics instead
        ma, mb = a.metrics, b.metrics
        assert (ma.workload_time, ma.utilization, ma.mean_wait) == (
            mb.workload_time, mb.utilization, mb.mean_wait
        )
        assert ma.satisfied_dyn_jobs == mb.satisfied_dyn_jobs
        assert ma.completed_jobs == mb.completed_jobs
        assert decisions(a.scheduler_stats) == decisions(b.scheduler_stats)
