"""The lifecycle's enums hash in C.

``Enum.__hash__`` is a Python-level function (it hashes the member's
name), and the job lifecycle keys dicts on ``JobState`` and ``EventKind``
on every move: ``Server._move``'s row of ``_MOVES``, the state counts, the
lifecycle counters' ``by_kind`` table.  Both enums hash by identity
instead, so a run with every instrument on makes no call to it.
"""

import cProfile
import pstats

from repro.jobs.job import JobState
from repro.maui.config import MauiConfig
from repro.obs import Telemetry
from repro.sim.events import EventKind
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload


def test_members_hash_by_identity():
    for member in (*JobState, *EventKind):
        assert hash(member) == object.__hash__(member)


def test_a_run_makes_no_enum_hash_call():
    telemetry = Telemetry(
        sample_interval=60, windows=3600.0, decision_ledger=True,
        fairness=True, slo=["p99_wait < 4h"],
    )
    system = BatchSystem(4, 8, MauiConfig(), telemetry=telemetry)
    make_esp_workload(system.cluster.total_cores, seed=2014).submit_to(system)
    profile = cProfile.Profile()
    profile.runcall(system.run, max_events=1_000_000)
    calls = pstats.Stats(profile).stats
    assert system.metrics().completed_jobs > 0
    hashed = [
        (where, stat[1])
        for where, stat in calls.items()
        if where[0].endswith("enum.py") and where[2] == "__hash__"
    ]
    assert hashed == []
