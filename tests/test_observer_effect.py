"""Attaching an instrument must not change what it observes.

One 2-shard evolving replay (the shape of the end-to-end benchmark's
``replay_observed`` workload, cut to tier-1 size) is run bare, with the
decision ledger, and with ledger + fairness observatory + sampler + SLOs.
All three must give the same schedule, the same scheduler counters and the
same trace once the instruments' own records are set aside — in particular
the per-shard pass skip has to survive the ledger, or the observed run
re-plans every shard on every pass and ``reservations_created`` /
``shard_passes_skipped`` describe a different run than the bare one.
"""

import io

import pytest

from benchmarks.test_replay_stream import (
    CORES_PER_NODE,
    NUM_NODES,
    _synthetic_swf,
)
from repro.maui.config import MauiConfig
from repro.obs import Telemetry
from repro.sim.events import EventKind
from repro.system import BatchSystem
from repro.workloads import evolving_ify, from_swf
from tests.conftest import reset_job_ids

SLO = ["p99_wait < 4h", "jain >= 0.5", "share_error < 0.2"]


@pytest.fixture(scope="module")
def workload():
    swf = _synthetic_swf(600, 31, load=0.9)
    return evolving_ify(from_swf(io.StringIO(swf)), 0.05, seed=31)


def _run(workload, telemetry):
    reset_job_ids()
    config = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=2
    )
    system = BatchSystem(NUM_NODES, CORES_PER_NODE, config, telemetry=telemetry)
    workload.submit_to(system)
    system.run(max_events=5_000_000)
    tuples = [
        (r.submit_time, r.start_time, r.end_time, r.state, r.dyn_granted)
        for r in system.metrics().records
    ]
    stats = dict(system.scheduler.stats)
    del stats["dyn_handle_seconds"]  # wall clock
    trace = [
        repr(e)
        for e in system.trace
        if e.kind not in (EventKind.DECISION, EventKind.SLO_BREACH)
    ]
    return tuples, stats, trace


def test_instruments_do_not_change_the_run(workload):
    bare = _run(workload, None)
    ledger = _run(workload, Telemetry(sample_interval=None, decision_ledger=True))
    everything = _run(
        workload,
        Telemetry(
            sample_interval=60, windows=3600.0, decision_ledger=True,
            fairness=True, slo=SLO,
        ),
    )
    # the replay has to exercise what the contract is about
    assert bare[1]["shard_passes_skipped"] > 100
    assert bare[1]["reservations_created"] > 100
    assert bare[1]["dyn_granted"] > 0
    for observed in (ledger, everything):
        assert observed[0] == bare[0]
        assert observed[1] == bare[1]
        assert observed[2] == bare[2]
