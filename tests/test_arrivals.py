"""Lazy workload arrivals: one pending event, the eager order and ids.

``Workload.submit_to`` builds each future job when it arrives, on engine
and job sequence numbers reserved up front.  No eager path is kept to
compare against, so these tests pin what that path did: ties at equal
time and priority, job ids (helper jobs built mid-run included), the
records of the SLURM-style baseline, and the retained memory of a
workload that has been submitted but has not started.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro import BatchSystem, MauiConfig
from repro.baselines.slurm_style import make_slurm_esp_workload, run_slurm_esp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.job import Job, reserve_job_seqs
from repro.sim.engine import PRIORITY_NORMAL, Engine
from repro.workloads import evolving_ify, from_swf, make_esp_workload
from repro.workloads.spec import JobSpec, Workload
from tests.conftest import reset_job_ids


def _spec(t: float, cores: int = 1, runtime: float = 10.0) -> JobSpec:
    return JobSpec(
        submit_time=t, request=ResourceRequest(cores=cores), walltime=runtime,
        user="u",
    )


def _swf(n: int, seed: int = 2014) -> str:
    """``n`` jobs arriving after t = 0 on a 32x8 machine (sizes 1-64)."""
    rng = np.random.default_rng(seed)
    sizes = np.clip(np.exp(rng.uniform(0, np.log(64), n)).round().astype(int), 1, 64)
    runtimes = np.exp(rng.uniform(np.log(300), np.log(7200), n)).round().astype(int)
    arrivals = np.cumsum(rng.exponential(60.0, n)).round().astype(int) + 1
    users = rng.integers(1, 33, n)
    return "".join(
        f"{i + 1} {arrivals[i]} -1 {runtimes[i]} {sizes[i]} -1 -1 {sizes[i]} "
        f"{int(runtimes[i] * 1.2)} -1 1 {users[i]} {users[i]} -1 -1 -1 -1 -1\n"
        for i in range(n)
    )


class TestReservations:
    def test_engine_reserve_orders_as_at_would(self):
        engine = Engine()
        fired: list[str] = []
        first = engine.reserve(2)
        engine.at(5.0, fired.append, "later")
        # pushed last, but on the numbers taken before "later"
        engine.at_reserved(5.0, first + 1, fired.append, "second")
        engine.at_reserved(5.0, first, fired.append, "first")
        engine.run()
        assert fired == ["first", "second", "later"]

    def test_engine_refuses_unreserved_and_past_keys(self):
        engine = Engine()
        first = engine.reserve(1)
        with pytest.raises(ValueError):
            engine.at_reserved(1.0, first + 1, print)
        engine.at(3.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.at_reserved(1.0, first, print)
        with pytest.raises(ValueError):
            engine.reserve(-1)

    def test_job_seq_block_skips_jobs_built_in_between(self):
        first = reserve_job_seqs(3)
        between = Job(request=ResourceRequest(cores=1), walltime=1.0)
        assert between.seq == first + 3
        pinned = Job(request=ResourceRequest(cores=1), walltime=1.0, seq=first + 1)
        assert pinned.job_id == f"job.{first + 1}"
        with pytest.raises(ValueError):
            reserve_job_seqs(-1)


class TestArrivals:
    def test_one_pending_event_for_an_all_future_workload(self):
        system = BatchSystem(2, 8, MauiConfig())
        Workload([_spec(10.0 * (i + 1)) for i in range(50)]).submit_to(system)
        assert system.engine.pending == 1
        assert not system.server.jobs

    def test_due_specs_are_submitted_at_once(self):
        system = BatchSystem(2, 8, MauiConfig())
        Workload([_spec(0.0), _spec(0.0), _spec(5.0)]).submit_to(system)
        assert len(system.server.jobs) == 2
        system.run()
        seqs = [j.seq for j in system.server.jobs.values()]
        assert seqs == list(range(seqs[0], seqs[0] + 3))

    def test_arrival_wins_a_tie_with_an_event_scheduled_mid_run(self):
        system = BatchSystem(2, 8, MauiConfig())
        seen: dict[str, int] = {}

        def look(label: str) -> None:
            seen[label] = len(system.server.jobs)

        engine = system.engine
        # scheduled before submit_to: a lower sequence number than the arrival
        engine.at(100.0, look, "before", priority=PRIORITY_NORMAL)
        Workload([_spec(50.0), _spec(100.0)]).submit_to(system)
        # scheduled once the run is under way, for the arrival's timestamp
        engine.at(
            10.0, lambda: engine.at(100.0, look, "mid_run", priority=PRIORITY_NORMAL)
        )
        system.run()
        assert seen == {"before": 1, "mid_run": 2}

    def test_one_workload_replays_identically_on_two_systems(self):
        workload = evolving_ify(from_swf(_swf(300)), 0.2, seed=3)
        runs = []
        for _ in range(2):
            reset_job_ids()
            system = BatchSystem(8, 8, MauiConfig())
            workload.submit_to(system)
            system.run(max_events=1_000_000)
            runs.append([
                (j.job_id, j.submit_time, j.start_time, j.end_time, j.state,
                 j.dyn_granted)
                for j in system.server.jobs.values()
            ])
        assert len(runs[0]) == 300
        assert runs[0] == runs[1]

    def test_slurm_helper_ids_and_records_pinned(self):
        """Helper jobs are built mid-run, between arrivals; they keep the
        ids they had when every job was built before the run."""
        reset_job_ids()
        records = run_slurm_esp(seed=2014).records
        rows = [
            (r.job_id, r.submit_time, r.start_time, r.end_time, r.state)
            for r in records
        ]
        assert len(rows) == 230
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        assert digest == "3ca058ef0eef44ba"


class TestEvolvingCount:
    def test_evolving_flag_counts_like_build_job(self):
        system = BatchSystem(15, 8, MauiConfig())
        workload = make_slurm_esp_workload(system, seed=2014)
        evolving = sum(1 for s in workload.specs if s.build_job().is_evolving)
        assert evolving == 69
        assert workload.evolving_jobs == 69
        assert "69 evolving" in repr(workload)
        assert make_esp_workload(120, dynamic=True).evolving_jobs == 69


def test_submitted_workload_memory_per_job():
    """Parse, evolve and submit a 2 000-job trace: what stays allocated
    is the spec list, not a job, app and event per spec (≈ 1.5 kB a job
    when every job was built up front)."""
    n = 2000
    text = _swf(n)

    def retained() -> float:
        system = BatchSystem(32, 8, MauiConfig())
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workload = evolving_ify(from_swf(text), 0.05, seed=7)
            workload.submit_to(system)
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()

    retained()  # first-call caches (imports, numpy) are not the workload's
    per_job = retained()
    assert per_job <= 600, f"{per_job:.0f} bytes retained per job"
