"""Attaching an instrument must not change what it observes.

One 2-shard evolving replay (the shape of the end-to-end benchmark's
``replay_observed`` workload, cut to tier-1 size) is run bare, with the
decision ledger, and with ledger + fairness observatory + sampler + SLOs;
so is each Table II configuration under the default fault model.  Every
instrumented run must give the bare run's schedule, scheduler counters
and trace, whole: an instrument keeps its own record and writes nothing
into the trace.  In particular the per-shard pass skip has to survive the
ledger, or the observed run re-plans every shard on every pass and
``reservations_created`` / ``shard_passes_skipped`` describe a different
run than the bare one; and the ledger's node-failure requeues stay in the
ledger.
"""

import io

import pytest

from benchmarks.test_replay_stream import (
    CORES_PER_NODE,
    NUM_NODES,
    _synthetic_swf,
)
from repro.experiments.configs import all_configurations
from repro.experiments.resilience import default_fault_model
from repro.maui.config import MauiConfig
from repro.obs import Telemetry
from repro.obs.ledger import DecisionKind
from repro.system import BatchSystem
from repro.workloads import evolving_ify, from_swf, make_esp_workload
from tests.conftest import reset_job_ids

SLO = ["p99_wait < 4h", "jain >= 0.5", "share_error < 0.2"]


def _everything():
    return Telemetry(
        sample_interval=60, windows=3600.0, decision_ledger=True,
        fairness=True, slo=SLO,
    )


@pytest.fixture(scope="module")
def workload():
    swf = _synthetic_swf(600, 31, load=0.9)
    return evolving_ify(from_swf(io.StringIO(swf)), 0.05, seed=31)


def _observed(system):
    tuples = [
        (r.submit_time, r.start_time, r.end_time, r.state, r.dyn_granted)
        for r in system.metrics().records
    ]
    stats = dict(system.scheduler.stats)
    del stats["dyn_handle_seconds"]  # wall clock
    return tuples, stats, [repr(e) for e in system.trace]


def _run(workload, telemetry):
    reset_job_ids()
    config = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=2
    )
    system = BatchSystem(NUM_NODES, CORES_PER_NODE, config, telemetry=telemetry)
    workload.submit_to(system)
    system.run(max_events=5_000_000)
    return _observed(system)


def test_instruments_do_not_change_the_run(workload):
    bare = _run(workload, None)
    ledger = _run(workload, Telemetry(sample_interval=None, decision_ledger=True))
    everything = _run(workload, _everything())
    # the replay has to exercise what the contract is about
    assert bare[1]["shard_passes_skipped"] > 100
    assert bare[1]["reservations_created"] > 100
    assert bare[1]["dyn_granted"] > 0
    for observed in (ledger, everything):
        assert observed[0] == bare[0]
        assert observed[1] == bare[1]
        assert observed[2] == bare[2]


@pytest.mark.parametrize("config", all_configurations(), ids=lambda c: c.name)
def test_instruments_do_not_change_a_faulty_table2_run(config):
    def run(telemetry):
        reset_job_ids()
        system = BatchSystem(
            15, 8, config.maui, telemetry=telemetry,
            fault_model=default_fault_model(),
        )
        make_esp_workload(
            120, dynamic=config.dynamic_workload, seed=2014
        ).submit_to(system)
        system.run(max_events=10_000_000)
        return system

    bare = run(None)
    observed = run(_everything())
    assert _observed(observed) == _observed(bare)
    # the failures requeued work, and the ledger recorded it for itself
    assert bare.fault_injector.stats["jobs_requeued"] > 0
    assert observed.telemetry.ledger.of_kind(DecisionKind.NODE_FAILURE_REQUEUE)
