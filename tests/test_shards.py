"""Tests for the per-partition scheduler sharding (repro.maui.shards).

The contract under test, in order of importance:

1. **Single-shard oracle**: with ``scheduler_shards=1`` (the default) the
   pass reproduces the outputs of the monolithic pass PR 15 deleted —
   same start/end times, same states, same decision counters — frozen in
   ``_PINNED_SINGLE_SHARD`` for every seeded ESP configuration.  It is the
   same walk as at any other shard count, kept plans included; only the
   counters of planning work differ from that recording.
2. **Multi-shard determinism**: the same seed always produces the same
   schedule, run-to-run, at any shard count.
3. **Cross-shard merge**: a full-machine job (ESP Z) routes through the
   explicit merge and can span every shard, surviving node fail/recover
   churn confined to one shard.
4. **Per-shard skip soundness**: skipping quiescent shards never changes
   the schedule, only the amount of planning work — at 1 shard as at N.
"""

import dataclasses
import functools
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import FixedRuntimeApp
from repro.cluster.allocation import Allocation, ResourceRequest
from repro.cluster.machine import Cluster
from repro.cluster.profile import AvailabilityProfile
from repro.jobs.job import Job
from repro.maui.config import MauiConfig
from repro.maui.shards import SchedulerShard, ShardMap
from repro.obs import Telemetry
from repro.obs.ledger import DecisionKind
from repro.rms.client import qalter
from repro.system import BatchSystem
from repro.workloads import evolving_ify, make_random_workload
from repro.workloads.esp import make_esp_workload
from repro.workloads.spec import JobSpec, Workload

from repro.experiments.configs import all_configurations, configuration
from tests.conftest import reset_job_ids

CONFIG_NAMES = [c.name for c in all_configurations()]


def _run_esp(config, shards, *, num_nodes=8, cores_per_node=4, seed=2014):
    """A compact ESP run (same machine as the profile-equivalence oracle)."""
    maui = dataclasses.replace(config.maui, scheduler_shards=shards)
    system = BatchSystem(num_nodes=num_nodes, cores_per_node=cores_per_node, config=maui)
    make_esp_workload(
        num_nodes * cores_per_node, dynamic=config.dynamic_workload, seed=seed
    ).submit_to(system)
    system.run(max_events=5_000_000)
    metrics = system.metrics()
    tuples = [
        (r.submit_time, r.start_time, r.end_time, r.state) for r in metrics.records
    ]
    stats = {
        k: v
        for k, v in system.scheduler.stats.items()
        if not k.endswith("_seconds")
    }
    return tuples, stats, system


# ----------------------------------------------------------------------
# 1. single-shard pass ≡ the frozen outputs of the monolithic pass
# ----------------------------------------------------------------------
def _pinned_stats(**moving):
    """Full non-``_seconds`` stats of a single-shard ESP run: the counters
    that move per config plus the ones every such run leaves at zero (no
    job of the workload is wider than the one shard, so nothing merges)."""
    return {
        "preemptions": 0, "malleable_shrinks": 0, "jobs_molded": 0,
        "profile_advance_fallbacks": 0, "shard_merges": 0,
        **moving,
    }


#: config -> (sha256 of ``repr(tuples)``, stats) on ``_run_esp``'s 8x4
#: machine, seed 2014.  Digests and every decision stat recorded at the
#: parent of PR 15 from ``scheduler_shards=0`` — the monolithic static pass,
#: deleted there.  The six mechanism counters (second row of each entry)
#: re-recorded when the one-shard pass started keeping its plan like any
#: other shard: reservations placed 2197/2899/2797/2798 before.  Four work
#: counters re-recorded when a pass stopped waking itself (R4-R6; in the
#: order below, 463/610/588/589, 0, 197/231/236/236 and 79/198/180/180
#: before):
#: ``iterations`` - an echo proven a replay is not run;
#: ``iterations_skipped`` - wakes onto an empty queue now skip, and proven
#: echoes are never queued, so they are not among the skips;
#: ``profile_advances`` - a shard whose every job starts into free space
#: builds no profile (``profile_builds`` did not move: the one-shard
#: profile is built once and advanced after that);
#: ``shard_passes_skipped`` - the skips it counted were those echo passes.
#: ``profile_advances`` once more (196/230/235/235 before) when the
#: per-snapshot profile cache and the kept delay context went: the
#: former's 0/1/1/2 hits (the deleted ``profile_cache_hits``) and the
#: latter's 0/0/3/3 reuses (of 0/10/19/19 dynamic requests measured) are
#: each one advance by an empty delta now.
_PINNED_SINGLE_SHARD = {
    "Static": (
        "93e91705555689114c6468661bb1686d9de949b58395668b42a30ebfedbf7306",
        _pinned_stats(
            iterations=374, iterations_skipped=9, dyn_granted=0, dyn_rejected=0,
            dyn_rejected_fairness=0, dyn_rejected_resources=0,
            jobs_started=186, jobs_backfilled=44, total_delay_charged=0.0,
            reservations_created=925, profile_builds=1,
            profile_advances=196,
            # 7319 before failed probes screened the requests they imply
            backfill_quick_rejects=12367,
            shard_passes_skipped=0,
        ),
    ),
    "Dyn-HP": (
        "c933ac0b12d190df39a57817e2525021e4c1d8fb3cf8f3abb28a83cffb4fdf1a",
        _pinned_stats(
            iterations=509, iterations_skipped=10, dyn_granted=10, dyn_rejected=124,
            dyn_rejected_fairness=0, dyn_rejected_resources=124,
            jobs_started=180, jobs_backfilled=50, total_delay_charged=0.0,
            reservations_created=1054, profile_builds=2,
            profile_advances=231,
            # 7812 before failed probes screened the requests they imply
            backfill_quick_rejects=13589,
            shard_passes_skipped=109,
        ),
    ),
    "Dyn-500": (
        "687c9af7772a0853cfe2264932a5b35b5063f72f9e780ab3873fe5fb6aaf7201",
        _pinned_stats(
            iterations=496, iterations_skipped=7, dyn_granted=11, dyn_rejected=122,
            dyn_rejected_fairness=8, dyn_rejected_resources=114,
            jobs_started=173, jobs_backfilled=57,
            total_delay_charged=2395.499999999999,
            reservations_created=1031, profile_builds=2,
            profile_advances=239,
            # 8290 before failed probes screened the requests they imply
            backfill_quick_rejects=13602,
            shard_passes_skipped=97,
        ),
    ),
    "Dyn-600": (
        "f49a370be49b0e0ef6d0fc030ec72e69d4cb053b528f565cda973568bcebe87f",
        _pinned_stats(
            iterations=497, iterations_skipped=7, dyn_granted=12, dyn_rejected=121,
            dyn_rejected_fairness=7, dyn_rejected_resources=114,
            jobs_started=173, jobs_backfilled=57,
            total_delay_charged=2770.666666666665,
            reservations_created=1032, profile_builds=2,
            profile_advances=240,
            # 8291 before failed probes screened the requests they imply
            backfill_quick_rejects=13603,
            shard_passes_skipped=97,
        ),
    ),
}


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_single_shard_bit_identical_to_monolithic(name):
    digest, pinned_stats = _PINNED_SINGLE_SHARD[name]
    tuples, stats, _ = _run_esp(configuration(name), shards=1)
    assert stats == pinned_stats
    assert hashlib.sha256(repr(tuples).encode()).hexdigest() == digest


@pytest.mark.slow
def test_table2_exports_match_monolithic_golden(tmp_path):
    """Ledger and trace JSONL and the Prometheus export of the default CLI
    run against the sha256 list: the ledgers byte for byte as recorded from
    ``--shards 0`` before that mode went; the traces with their
    ``reservation_create`` and ``sched_iteration`` lines set aside (written
    per unit of planning work — a reservation placed or moved, a pass run —
    not per decision; the golden's header has the proof), and the number of
    those lines pinned; the metrics whole, as they hold no wall-clock
    reading.  Job ids are process-global, hence the fresh interpreter."""
    root = Path(__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "table2", "--telemetry-out",
         str(tmp_path), "--ledger", "--seed", "2014"],
        check=True, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    golden = root / "tests" / "golden" / "table2_seed2014.sha256"
    lines = [line.split() for line in golden.read_text().splitlines()]
    digests = [line for line in lines if not line[0].startswith("#")]
    counts = [line[1:] for line in lines if line[0] == "#count"]
    assert len(digests) == 12 and len(counts) == 8
    exports = {name: (tmp_path / name).read_bytes().splitlines(keepends=True)
               for _, name in digests}
    for kind, count, name in counts:
        marker = b'"kind": "%s"' % kind.encode()
        assert sum(marker in line for line in exports[name]) == int(count), (name, kind)
        exports[name] = [line for line in exports[name] if marker not in line]
    for digest, name in digests:
        assert hashlib.sha256(b"".join(exports[name])).hexdigest() == digest, name


# ----------------------------------------------------------------------
# 2. multi-shard determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4])
def test_multi_shard_same_seed_identical(shards):
    config = configuration("Dyn-HP")
    a_tuples, a_stats, _ = _run_esp(config, shards=shards)
    b_tuples, b_stats, _ = _run_esp(config, shards=shards)
    assert a_tuples == b_tuples
    assert a_stats == b_stats


def test_multi_shard_workload_drains():
    """Every ESP config drains at 2 and 4 shards and exercises the merge."""
    for name in CONFIG_NAMES:
        tuples, stats, system = _run_esp(configuration(name), shards=2)
        assert all(t[3] == "completed" for t in tuples), name
        # the full-machine Z job cannot fit any single shard
        assert stats["shard_merges"] > 0, name


# ----------------------------------------------------------------------
# 3. spanning jobs and the cross-shard merge
# ----------------------------------------------------------------------
def test_full_machine_job_spans_shards_under_churn():
    """ESP-Z-style lockdown drains across shards while one shard churns."""
    from repro.apps.synthetic import FixedRuntimeApp
    from repro.jobs.job import Job, JobState

    maui = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=2
    )
    system = BatchSystem(num_nodes=4, cores_per_node=8, config=maui)
    shard_map = system.scheduler.static_pass.shards.shard_map
    assert len(shard_map) == 2

    fillers = [
        system.submit(
            Job(request=ResourceRequest(cores=16), walltime=900.0, user=f"u{i}"),
            FixedRuntimeApp(300.0),
        )
        for i in range(2)
    ]
    z = Job(
        request=ResourceRequest(cores=32),
        walltime=1200.0,
        user="zuser",
        top_priority=True,
    )
    system.submit_at(10.0, z, FixedRuntimeApp(600.0))
    system.run(until=60.0)

    # churn confined to shard 1 while Z waits for the whole machine
    victim = shard_map.shards[1].nodes[0]
    system.server.handle_node_failure(victim)
    system.run(until=120.0)
    system.server.recover_node(victim)
    system.run(max_events=5_000_000)

    assert z.state is JobState.COMPLETED
    touched = {shard_map.node_to_shard[n] for n in z.allocation}
    assert touched == {0, 1}
    assert all(j.state is JobState.COMPLETED for j in fillers)
    assert system.scheduler.stats["shard_merges"] > 0


def test_merge_matches_monolithic_profile():
    """Merging shard profiles reproduces the full profile bit-for-bit."""
    whole = AvailabilityProfile(range(8), {i: 4 for i in range(8)}, 0.0)
    left = AvailabilityProfile(range(4), {i: 4 for i in range(4)}, 0.0)
    right = AvailabilityProfile(range(4, 8), {i: 4 for i in range(4, 8)}, 0.0)

    claims = [
        (0.0, 100.0, Allocation({0: 4, 1: 2})),
        (50.0, 250.0, Allocation({5: 4})),
        (10.0, 90.0, Allocation({3: 1, 4: 3})),
    ]
    for start, end, alloc in claims:
        whole.add_claim(start, end, alloc)
        for shard in (left, right):
            inside = {n: c for n, c in alloc.items() if n in shard._pos}
            if inside:
                shard.add_claim(start, end, Allocation(inside))

    merged = AvailabilityProfile.merge([left, right])
    assert merged._nodes == whole._nodes
    for t in sorted(set(whole.breakpoints) | set(merged.breakpoints)):
        assert merged.free_at(t) == whole.free_at(t), t
    request = ResourceRequest(cores=20)
    assert merged.earliest_fit(request, 50.0, after=0.0) == whole.earliest_fit(
        request, 50.0, after=0.0
    )


def test_merge_rejects_overlapping_nodes():
    a = AvailabilityProfile((0, 1), {0: 4, 1: 4}, 0.0)
    b = AvailabilityProfile((1, 2), {1: 4, 2: 4}, 0.0)
    with pytest.raises(ValueError):
        AvailabilityProfile.merge([a, b])


# ----------------------------------------------------------------------
# 4. per-shard skip soundness
# ----------------------------------------------------------------------
def test_shard_skip_does_not_change_schedule():
    maui = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=4
    )
    workload = make_random_workload(80, 64, seed=42)

    def run(skip):
        system = BatchSystem(num_nodes=8, cores_per_node=8, config=maui)
        system.scheduler.shard_skip_enabled = skip
        workload.submit_to(system)
        system.run(max_events=5_000_000)
        return (
            [
                (r.submit_time, r.start_time, r.end_time, r.state)
                for r in system.metrics().records
            ],
            system.scheduler.stats,
        )

    on_tuples, on_stats = run(True)
    off_tuples, off_stats = run(False)
    assert on_tuples == off_tuples
    assert on_stats["shard_passes_skipped"] > 0
    assert off_stats["shard_passes_skipped"] == 0


def _ledger_run(workload, maui, *, skip, nodes, cores, until=None, watch=None):
    """One ledger-instrumented run; job ids restart so bytes compare."""
    reset_job_ids()
    telemetry = Telemetry(sample_interval=None, decision_ledger=True)
    system = BatchSystem(
        num_nodes=nodes, cores_per_node=cores, config=maui, telemetry=telemetry
    )
    system.scheduler.shard_skip_enabled = skip
    if watch is not None:
        watch(system)
    workload.submit_to(system)
    system.run(until=until, max_events=5_000_000)
    return system, telemetry.ledger


def _schedule(system):
    return [
        (r.submit_time, r.start_time, r.end_time, r.state)
        for r in system.metrics().records
    ]


def _ledger_bytes(ledger, tmp_path, name):
    path = tmp_path / name
    ledger.export_jsonl(path)
    return path.read_bytes()


def test_shard_skip_does_not_change_ledger(tmp_path):
    """Skip-on ≡ skip-off with the decision ledger attached: same schedule,
    same ledger bytes, same per-job attribution, and the same ``explain``
    for a job caught queued at a mid-run stop."""
    maui = MauiConfig(
        reservation_depth=5, reservation_delay_depth=5, scheduler_shards=4
    )
    workload = make_random_workload(80, 64, seed=42)

    def run(skip, until=None):
        return _ledger_run(workload, maui, skip=skip, nodes=8, cores=8, until=until)

    on, on_ledger = run(True)
    off, off_ledger = run(False)
    assert on.scheduler.stats["shard_passes_skipped"] > 0
    assert off.scheduler.stats["shard_passes_skipped"] == 0
    assert _schedule(on) == _schedule(off)
    assert len(on_ledger) > 0
    assert _ledger_bytes(on_ledger, tmp_path, "on.jsonl") == _ledger_bytes(
        off_ledger, tmp_path, "off.jsonl"
    )
    assert sorted(on.server.jobs) == sorted(off.server.jobs)
    for job_id in on.server.jobs:
        assert on_ledger.attribution(job_id) == off_ledger.attribution(job_id)

    # mid-run: stop where jobs queue behind reservations and ask why
    stop = 2500.0
    on, _ = run(True, until=stop)
    off, _ = run(False, until=stop)
    assert on.scheduler.stats["shard_passes_skipped"] > 0
    queued = [j.job_id for j in on.server.queue.snapshot()]
    assert queued and queued == [j.job_id for j in off.server.queue.snapshot()]
    for job_id in queued:
        assert on.scheduler.explain(on.server.jobs[job_id]) == off.scheduler.explain(
            off.server.jobs[job_id]
        )


def test_replayed_reservations_keep_walk_order(tmp_path):
    """A start on the planned shard *between* two replayed reservations of
    the skipped shard sees only the reservations ahead of it in priority
    order.  Shard 0 holds A reserved at t=1000 and, lower in priority, C
    reserved at t=600 in the hole before it; X of shard 1 sits between
    them and backfills once its shard frees up — its hole closes at A's
    t=1000, not at the earliest cached start."""

    def spec(at, cores, walltime, runtime=None):
        shaped = ResourceRequest(nodes=cores // 4, ppn=4)
        rt = walltime if runtime is None else runtime
        return JobSpec(
            at, shaped, walltime, "u", app_factory=lambda: FixedRuntimeApp(rt)
        )

    workload = Workload(
        [
            spec(0.0, 4, 1000.0),  # fills node 0 (shard 0)
            spec(0.0, 8, 500.0, runtime=200.0),  # fills shard 1, ends early
            spec(1.0, 4, 599.0),  # fills node 1 (shard 0) until t=600
            spec(10.0, 8, 100.0),  # A: shard 0, reserved at t=1000
            spec(11.0, 8, 100.0),  # X: shard 1, backfills at t=200
            spec(12.0, 4, 300.0),  # C: shard 0, reserved at t=600
        ]
    )
    maui = MauiConfig(reservation_depth=5, scheduler_shards=2)

    def run(skip):
        system, ledger = _ledger_run(workload, maui, skip=skip, nodes=4, cores=4)
        (start,) = [
            d
            for d in ledger.decisions_for("job.5")
            if d.kind is DecisionKind.BACKFILL_START
        ]
        return system, ledger, start

    on, on_ledger, on_start = run(True)
    off, off_ledger, off_start = run(False)
    assert on.scheduler.stats["shard_passes_skipped"] > 0
    reserved = {
        d.job_id: d.payload["start"]
        for d in on_ledger.of_kind(DecisionKind.RESERVATION_CREATE)
    }
    assert reserved["job.4"] == 1000.0 and reserved["job.6"] == 600.0
    assert on_start.time == 200.0
    assert on_start.payload["jumped"] == ["job.4"]
    assert on_start.payload["hole_until"] == 1000.0
    assert on_start.payload == off_start.payload
    assert _ledger_bytes(on_ledger, tmp_path, "on.jsonl") == _ledger_bytes(
        off_ledger, tmp_path, "off.jsonl"
    )


#: counters of planning *work*: what the skip exists to change (a pass
#: whose plans were all kept queues no echo, so the pass counts are among
#: them).  Everything else in ``scheduler.stats`` is a decision count and
#: must not move.
_MECHANISM = frozenset(
    {
        "iterations", "iterations_skipped",
        "reservations_created", "backfill_quick_rejects", "shard_passes_skipped",
        "profile_builds", "profile_advances",
        "profile_advance_fallbacks", "dyn_handle_seconds",
    }
)


def _decision_stats(system):
    return {k: v for k, v in system.scheduler.stats.items() if k not in _MECHANISM}


class _GrowingApp:
    """Runs ``runtime`` seconds and asks for one more core at ``ask_at``."""

    def __init__(self, runtime, ask_at):
        self.runtime, self.ask_at = runtime, ask_at

    def launch(self, ctx):
        self.ctx = ctx
        ctx.after(self.ask_at, self._ask)
        ctx.after(self.runtime, ctx.finish)

    def _ask(self):
        if self.ctx.job.is_active:
            self.ctx.tm_dynget(ResourceRequest(cores=1), lambda grant: None)


@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    shards=st.sampled_from([1, 2, 3]),
    seed=st.integers(min_value=0, max_value=10_000),
    spanning_at=st.floats(min_value=0.0, max_value=1500.0),
    lockdown_at=st.floats(min_value=0.0, max_value=1500.0),
    # small jobs dropped into the run: the short ones fit the hole before a
    # shard's first reservation (R2/R3 keep the plan), the long ones
    # backfill across a reservation window (the plan must be dropped), and
    # each arrives at the tail of a routed queue between completions (R1)
    fillers=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1500.0),
            st.integers(min_value=1, max_value=4),
            st.sampled_from([40.0, 150.0, 900.0, 2500.0]),
        ),
        max_size=8,
    ),
    grow_at=st.floats(min_value=0.0, max_value=1200.0),
    fail_at=st.floats(min_value=0.0, max_value=1500.0),
    fail_node=st.integers(min_value=0, max_value=5),
    alter_at=st.floats(min_value=0.0, max_value=1500.0),
    stop=st.floats(min_value=200.0, max_value=2000.0),
)
@example(  # the default shard count is always among the examples run
    shards=1, seed=2014, spanning_at=700.0, lockdown_at=1200.0,
    fillers=[(50.0, 2, 40.0), (300.0, 3, 900.0), (600.0, 1, 2500.0)],
    grow_at=100.0, fail_at=900.0, fail_node=2, alter_at=400.0, stop=800.0,
)
def test_pass_cache_dropped_exactly_as_without_ledger(
    shards, seed, spanning_at, lockdown_at, fillers, grow_at, fail_at,
    fail_node, alter_at, stop,
):
    """Random queues with a spanning job, a lockdown job, hole-sized and
    window-crossing backfill candidates, a mid-run dynamic request, a node
    failure and a ``qalter``: after every pass the cache holds the same
    shards with the ledger attached as without it, it is empty whenever a
    spanning or top-priority job queues (the ``span`` job spans only where
    there is more than one shard), and skip-on ≡ skip-off holds for the
    schedule, every decision counter, the ledger bytes, every job's
    attribution, and ``explain`` of every job caught queued at a mid-run
    stop."""
    base = make_random_workload(24, 24, size_range=(1, 8), seed=seed)
    extra = [
        JobSpec(  # spans every shard: planned on the cross-shard merge
            spanning_at, ResourceRequest(nodes=6, ppn=4), 300.0, "span",
            app_factory=lambda: FixedRuntimeApp(200.0),
        ),
        JobSpec(  # ESP Z-style: its presence locks the pass down
            lockdown_at, ResourceRequest(cores=4), 300.0, "zed", top_priority=True,
            app_factory=lambda: FixedRuntimeApp(200.0),
        ),
        JobSpec(  # asks for one more core mid-run, then overruns its walltime
            grow_at, ResourceRequest(cores=3), 600.0, "late", evolving=True,
            app_factory=lambda: _GrowingApp(700.0, 300.0),
        ),
    ] + [
        JobSpec(
            at, ResourceRequest(cores=cores), walltime, "fill",
            app_factory=lambda walltime=walltime: FixedRuntimeApp(0.8 * walltime),
        )
        for at, cores, walltime in fillers
    ]
    workload = Workload(base.specs + extra)
    maui = MauiConfig(
        reservation_depth=3, reservation_delay_depth=3, scheduler_shards=shards
    )
    cached: list[tuple[float, tuple[int, ...]]] = []

    def watch(system):
        scheduler = system.scheduler
        iteration = scheduler.iteration
        server = system.server
        system.engine.at(fail_at, server.handle_node_failure, fail_node)
        system.engine.at(fail_at + 400.0, server.recover_node, fail_node)

        def alter():  # shrink whichever filler queues first to hole size
            for job in server.queue.snapshot():
                if job.user == "fill":
                    qalter(server, job, walltime=40.0)
                    return

        system.engine.at(alter_at, alter)

        def watched():
            iteration()
            keys = tuple(sorted(scheduler.static_pass.shards.plans))
            cached.append((system.engine.now, keys))
            queue = system.server.queue.snapshot()
            if any(
                j.top_priority or (j.user == "span" and shards > 1) for j in queue
            ):
                assert keys == ()

        scheduler.iteration = watched

    def ledger_run(skip, until=None):
        return _ledger_run(
            workload, maui, skip=skip, nodes=6, cores=4, watch=watch, until=until
        )

    on, on_ledger = ledger_run(True)
    with_ledger, cached[:] = list(cached), []

    reset_job_ids()
    bare = BatchSystem(num_nodes=6, cores_per_node=4, config=maui)
    watch(bare)
    workload.submit_to(bare)
    bare.run(max_events=5_000_000)
    assert cached == with_ledger
    assert _schedule(bare) == _schedule(on)
    assert _decision_stats(bare) == _decision_stats(on)

    off, off_ledger = ledger_run(False)
    assert _schedule(off) == _schedule(on)
    assert _decision_stats(off) == _decision_stats(on)
    with tempfile.TemporaryDirectory() as tmp:
        assert _ledger_bytes(on_ledger, Path(tmp), "on") == _ledger_bytes(
            off_ledger, Path(tmp), "off"
        )
    assert sorted(on.server.jobs) == sorted(off.server.jobs)
    for job_id in on.server.jobs:
        assert on_ledger.attribution(job_id) == off_ledger.attribution(job_id)

    on, _ = ledger_run(True, until=stop)
    off, _ = ledger_run(False, until=stop)
    queued = [j.job_id for j in on.server.queue.snapshot()]
    assert queued == [j.job_id for j in off.server.queue.snapshot()]
    for job_id in queued:
        assert on.scheduler.explain(on.server.jobs[job_id]) == off.scheduler.explain(
            off.server.jobs[job_id]
        )


# ----------------------------------------------------------------------
# 5. a shard's plan outlives its pass: one directed case per rule, and the
#    changes that must still re-plan.  2 nodes x 4 cores per shard, so a
#    shard is 8 cores at any shard count; the oracle is the same run with
#    the skip off.  Each case runs at 2 shards under its own name and at 1
#    shard through ``test_plan_rules_hold_at_one_shard`` (a defaulted
#    argument is not a fixture, so the ids below never change): there the
#    jobs that only keep shard 1 busy are left out.
# ----------------------------------------------------------------------
def _plan_system(skip=True, maui=None, shards=2):
    reset_job_ids()
    if maui is None:
        maui = MauiConfig(reservation_depth=5)
    maui = dataclasses.replace(maui, scheduler_shards=shards)
    system = BatchSystem(num_nodes=2 * shards, cores_per_node=4, config=maui)
    system.scheduler.shard_skip_enabled = skip
    passes = []
    scheduler = system.scheduler
    iteration = scheduler.iteration

    def watched():
        iteration()
        passes.append(
            {
                "now": system.engine.now,
                "cached": {
                    sid: plan.profile
                    for sid, plan in scheduler.static_pass.shards.plans.items()
                },
                **{k: scheduler.stats[k] for k in _MECHANISM},
            }
        )

    scheduler.iteration = watched
    return system, passes


def _submit(system, at, user="u", walltime=100.0, runtime=None, **request):
    job = Job(request=ResourceRequest(**request), walltime=walltime, user=user)
    system.submit_at(
        at, job, FixedRuntimeApp(walltime if runtime is None else runtime)
    )
    return job


def _both(build, shards, echo=False):
    """Run ``build(system) -> jobs`` with the skip on and off; the schedule
    must not depend on it.  Returns the skip-on passes and jobs.  ``echo``
    makes the skip-on run iterate always, so the echo pass R4 proves a
    replay (and never queues) runs and shows the plan it replays."""
    outcome = {}
    for skip in (True, False):
        system, passes = _plan_system(skip, shards=shards)
        system.scheduler.iteration_skip_enabled = not (skip and echo)
        jobs = build(system)
        system.run(max_events=1_000_000)
        outcome[skip] = (_schedule(system), _decision_stats(system), passes, jobs)
    assert outcome[True][:2] == outcome[False][:2]
    return outcome[True][2], outcome[False][2], outcome[True][3]


def _fill_shards(system, shards, until=1000.0):
    for _ in range(shards):  # one per shard, least-loaded routing
        _submit(system, 0.0, walltime=until, nodes=2, ppn=4)


def test_tail_append_replans_only_the_tail(shards=2):
    """R1: a job arriving at the tail of a routed queue is planned alone,
    on the profile the shard's last plan left behind."""

    def build(system):
        _fill_shards(system, shards)
        a = _submit(system, 10.0, cores=8)  # shard 0, reserved at t=1000
        b = _submit(system, 20.0, cores=8)  # shard 1 if there is one
        c = _submit(system, 30.0, cores=8)  # shard 0 again: behind A
        return a, b, c

    on, off, (a, b, c) = _both(build, shards)
    before, at_c = (next(p for p in on if p["now"] == t) for t in (20.0, 30.0))
    # the pass that saw C built no profile: a second shard was skipped,
    # shard 0 kept planning on the profile it already held ...
    assert at_c["profile_advances"] == before["profile_advances"]
    assert at_c["profile_builds"] == before["profile_builds"]
    assert at_c["cached"][0] is before["cached"][0] is not None
    assert at_c["shard_passes_skipped"] == before["shard_passes_skipped"] + shards - 1
    # ... and placed one reservation, C's, where the oracle re-placed all three
    assert at_c["reservations_created"] == before["reservations_created"] + 1
    off_before, off_at_c = (next(p for p in off if p["now"] == t) for t in (20.0, 30.0))
    assert off_at_c["reservations_created"] == off_before["reservations_created"] + 3
    assert (a.start_time, b.start_time, c.start_time) == (
        (1000.0, 1000.0, 1100.0) if shards == 2 else (1000.0, 1100.0, 1200.0)
    )


def test_in_order_start_keeps_the_plan(shards=2):
    """R2: a start ahead of the shard's first reservation leaves the plan
    the echo pass would rebuild — the echo pass skips the shard."""

    def build(system):
        _submit(system, 0.0, walltime=1000.0, nodes=1, ppn=4)  # half of shard 0
        if shards == 2:
            _submit(system, 0.0, walltime=1000.0, nodes=2, ppn=4)  # all of shard 1
        s = _submit(system, 10.0, cores=4, walltime=50.0)  # shard 0: starts
        if shards == 2:
            _submit(system, 10.0, cores=8)  # shard 1 (least queued cores)
        a = _submit(system, 10.0, cores=8)  # shard 0, behind S: reserved
        return s, a

    on, off, (s, a) = _both(build, shards, echo=True)
    parent, echo = [p for p in on if p["now"] == 10.0]
    assert (s.start_time, a.start_time) == (10.0, 1000.0)
    assert set(parent["cached"]) == set(range(shards))
    assert echo["reservations_created"] == parent["reservations_created"] == shards
    assert echo["profile_advances"] == parent["profile_advances"]
    assert echo["shard_passes_skipped"] == parent["shard_passes_skipped"] + shards
    # the oracle's echo pass places every reservation a second time
    assert [p["reservations_created"] for p in off if p["now"] == 10.0] == [
        shards, 2 * shards
    ]


def test_hole_start_keeps_the_plan_and_overlapping_start_drops_it(shards=2):
    """R3: a backfill whose claim ends by the shard's earliest reservation
    keeps the plan; one that reaches into the reservation's window does not
    — the echo pass then re-plans, exactly as it always did."""

    def build(system, backfill_walltime):
        # shard 0: node 0 full and 2 cores of node 1 taken until t=1000
        _submit(system, 0.0, walltime=1000.0, cores=6)
        if shards == 2:
            _submit(system, 0.0, walltime=1000.0, nodes=2, ppn=4)  # all of shard 1
        a = _submit(system, 10.0, cores=4)  # shard 0: node 0 at t=1000
        if shards == 2:
            _submit(system, 10.0, cores=8)  # shard 1 (least queued cores)
        h = _submit(system, 10.0, cores=2, walltime=backfill_walltime)  # shard 0
        return a, h

    on, off, (a, h) = _both(lambda system: build(system, 500.0), shards, echo=True)
    parent, echo = [p for p in on if p["now"] == 10.0]
    assert (a.start_time, h.start_time) == (1000.0, 10.0)
    assert set(parent["cached"]) == set(range(shards))
    assert echo["reservations_created"] == parent["reservations_created"] == shards
    assert echo["shard_passes_skipped"] == parent["shard_passes_skipped"] + shards
    assert [p["reservations_created"] for p in off if p["now"] == 10.0] == [
        shards, 2 * shards
    ]

    # same queue, but the backfill now runs to t=2010, across A's window
    on, off, (a, h) = _both(lambda system: build(system, 2000.0), shards)
    parent, echo = [p for p in on if p["now"] == 10.0]
    assert (a.start_time, h.start_time) == (1000.0, 10.0)
    assert set(parent["cached"]) == set(range(1, shards))  # shard 0's plan went
    assert echo["reservations_created"] == parent["reservations_created"] + 1
    assert echo["reservations_created"] == shards + 1
    assert echo["shard_passes_skipped"] == parent["shard_passes_skipped"] + shards - 1


def test_due_reservation_replans_the_whole_shard(shards=2):
    """A cached reservation that has come due voids the entry: the tail
    append that would have been R1 is a full re-plan.  A reservation cannot
    come due without its shard changing (its start is a release), so the
    entry is aged by hand."""
    system, passes = _plan_system(shards=shards)
    _fill_shards(system, shards)
    for _ in range(shards):  # one reserved per shard
        _submit(system, 10.0, cores=8)
    system.run(until=20.0)
    entry = system.scheduler.static_pass.shards.plans[0]
    assert entry.min_res_start == 1000.0
    entry.min_res_start = 30.0
    _submit(system, 30.0, cores=8)  # shard 0 again, at its tail
    system.run(until=40.0)
    before, at_c = passes[-2:]
    assert at_c["now"] == 30.0
    assert at_c["reservations_created"] == before["reservations_created"] + 2
    assert at_c["profile_advances"] == before["profile_advances"] + 1
    assert at_c["cached"][0] is not entry.profile


def test_priority_insert_ahead_of_the_tail_replans_the_whole_shard(shards=2):
    from repro.maui.config import PriorityWeightsConfig

    maui = MauiConfig(
        reservation_depth=5,
        weights=PriorityWeightsConfig(
            credential=1.0, user_priorities={"vip": 1_000_000.0}
        ),
    )
    outcome = {}
    for skip in (True, False):
        system, passes = _plan_system(skip, maui, shards)
        _fill_shards(system, shards)
        a = _submit(system, 10.0, cores=8)  # shard 0
        vip = _submit(system, 30.0, user="vip", cores=8)  # shard 0, ahead of A
        system.run(max_events=1_000_000)
        outcome[skip] = (_schedule(system), passes)
    assert outcome[True][0] == outcome[False][0]
    assert (vip.start_time, a.start_time) == (1000.0, 1100.0)
    passes = outcome[True][1]
    before, at_insert = (next(p for p in passes if p["now"] == t) for t in (10.0, 30.0))
    # not a tail append: both of shard 0's reservations are placed again
    assert at_insert["reservations_created"] == before["reservations_created"] + 2
    assert at_insert["profile_advances"] == before["profile_advances"] + 1
    assert at_insert["cached"][0] is not before["cached"][0]


_QALTERS = [
    ({"cores": 3, "walltime": 500.0}, {"cores": 2}),
    ({"cores": 2, "walltime": 2000.0}, {"walltime": 500.0}),
]


@pytest.mark.parametrize("asked,altered", _QALTERS)
def test_qalter_replans_the_shard(asked, altered, shards=2):
    """``qalter`` changes what a queued job asks for under an unchanged id
    and an unchanged queue: the plan made from the old request is void.  X
    does not fit the two cores free until A's reservation at t=1000 — one
    core too wide, or running across A's window — until it is altered."""
    outcome = {}
    for skip in (True, False):
        system, _ = _plan_system(skip, shards=shards)
        _submit(system, 0.0, walltime=1000.0, cores=6)  # shard 0: 2 cores left
        if shards == 2:
            _submit(system, 0.0, walltime=1000.0, nodes=2, ppn=4)  # all of shard 1
        _submit(system, 10.0, cores=8)  # A, shard 0: every core at t=1000
        if shards == 2:
            _submit(system, 10.0, cores=8)  # shard 1 (least queued cores)
        x = _submit(system, 10.0, **asked)  # shard 0, behind A
        system.run(until=20.0)
        assert x.start_time is None
        qalter(system.server, x, **altered)
        system.run(max_events=1_000_000)
        outcome[skip] = (_schedule(system), x.start_time)
    assert outcome[True] == outcome[False]
    assert outcome[True][1] == 20.0


def test_node_event_drops_retained_profiles(shards=2):
    system, _ = _plan_system(shards=shards)
    _fill_shards(system, shards)
    _submit(system, 10.0, cores=8)
    system.run(until=20.0)
    cache = system.scheduler.static_pass.shards.plans
    assert cache and any(plan.profile is not None for plan in cache.values())
    system.server.handle_node_failure(2 * shards - 1)
    assert cache == {}


@pytest.mark.parametrize(
    "case",
    [
        test_tail_append_replans_only_the_tail,
        test_in_order_start_keeps_the_plan,
        test_hole_start_keeps_the_plan_and_overlapping_start_drops_it,
        test_due_reservation_replans_the_whole_shard,
        test_priority_insert_ahead_of_the_tail_replans_the_whole_shard,
        *(functools.partial(test_qalter_replans_the_shard, *q) for q in _QALTERS),
        test_node_event_drops_retained_profiles,
    ],
    ids=lambda case: getattr(case, "func", case).__name__.removeprefix("test_"),
)
def test_plan_rules_hold_at_one_shard(case):
    """The default configuration keeps its plan by the same rules."""
    case(shards=1)


def test_cancelled_jobs_leave_the_routing_table():
    """A job that leaves the queue without starting must not keep its
    sticky assignment (and its request) for the life of the scheduler."""
    system, _ = _plan_system()
    book = system.scheduler.static_pass.shards
    _fill_shards(system, 2)
    queued = [_submit(system, 10.0, cores=8) for _ in range(50)]
    system.run(until=20.0)
    assert sorted(book._assign) == sorted(job.job_id for job in queued)
    for job in queued:
        system.server.cancel_queued(job)
    system.run(until=30.0)  # every qdel wakes the scheduler
    assert book._assign == {}


def test_held_job_keeps_its_shard_across_a_prune():
    system, _ = _plan_system()
    book = system.scheduler.static_pass.shards
    _fill_shards(system, 2)
    x1, x2, x3 = (_submit(system, 10.0, cores=8) for _ in range(3))
    held = _submit(system, 10.0, cores=8)  # least queued cores: shard 1
    system.run(until=20.0)
    assigned = book._assign[held.job_id]
    assert assigned[1] == 1
    system.server.hold_job(held)
    system.server.cancel_queued(x1)
    system.server.cancel_queued(x3)
    system.run(until=30.0)
    # the walk saw x2 alone; the prune kept the held job all the same ...
    assert sorted(book._assign) == sorted([x2.job_id, held.job_id])
    system.server.release_hold(held)
    system.run(until=40.0)
    # ... so it stays on shard 1, where a fresh least-loaded assignment
    # (x2 queues there) would have sent it to shard 0
    assert book._assign[held.job_id] is assigned


# ----------------------------------------------------------------------
# 6. R6: a start into free space needs no profile
# ----------------------------------------------------------------------
_requests = st.one_of(
    st.builds(ResourceRequest, cores=st.integers(min_value=1, max_value=10)),
    st.builds(
        ResourceRequest,
        nodes=st.integers(min_value=1, max_value=3),
        ppn=st.integers(min_value=1, max_value=4),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    shards=st.sampled_from([1, 2]),
    down=st.none() | st.integers(min_value=0, max_value=3),
    running=st.lists(_requests, max_size=4),
    arrivals=st.lists(
        st.tuples(_requests, st.sampled_from([50.0, 400.0, 3000.0])),
        min_size=1, max_size=4,
    ),
)
def test_free_space_start_answers_as_a_reservation_free_profile(
    shards, down, running, arrivals
):
    """Whatever R6 decides from the shard's free cores — start on this
    allocation, or build the profile after all — is what
    ``fits_at(now, walltime, request)`` answers on a from-scratch profile of
    the same shard at that moment: flexible and ``nodes:ppn`` requests, a
    DOWN node, cores held by running jobs, and the starts made earlier in
    the same pass (every arrival lands on one timestamp).  The skip-off
    run never takes R6: it builds a profile for every shard it plans, and
    schedules the same."""

    def run(skip):
        reset_job_ids()
        maui = MauiConfig(reservation_depth=2, scheduler_shards=shards)
        system = BatchSystem(num_nodes=4, cores_per_node=4, config=maui)
        scheduler = system.scheduler
        scheduler.shard_skip_enabled = skip
        static_pass = scheduler.static_pass
        if down is not None:
            system.server.handle_node_failure(down)
        for request in running:
            system.submit_at(
                0.0, Job(request=request, walltime=1000.0, user="r"),
                FixedRuntimeApp(900.0),
            )
        for request, walltime in arrivals:
            system.submit_at(
                10.0, Job(request=request, walltime=walltime, user="a"),
                FixedRuntimeApp(0.5 * walltime),
            )
        taken = []
        free_start = static_pass._free_start

        def checked_free_start(job, plan, backfilled):
            shard = static_pass.shards.shard_map.shards[plan.sid]
            expected = scheduler.profiles.build_uncached(shard).fits_at(
                system.engine.now, job.walltime, job.request
            )
            took = free_start(job, plan, backfilled)
            assert took == (expected is not None)
            if took:
                assert job.allocation == expected
                assert plan.profile is None
            taken.append(took)
            return took

        static_pass._free_start = checked_free_start
        route = static_pass.shards.route
        run_pass = static_pass.run

        def checked_run(ordered, *args):
            sids, routed = route(ordered)
            outcome = run_pass(ordered, *args)
            if not skip and ordered:
                # a spanning job plans on the merge of every shard's profile
                assert [plan.profile is not None for plan in static_pass._plans] == [
                    bool(ids) or None in sids for ids in routed
                ]
            return outcome

        static_pass.run = checked_run
        system.run(max_events=1_000_000)
        return _schedule(system), _decision_stats(system), taken

    on_schedule, on_stats, on_taken = run(True)
    off_schedule, off_stats, off_taken = run(False)
    assert (on_schedule, on_stats) == (off_schedule, off_stats)
    assert not off_taken
    if shards == 1:
        # nothing spans the one shard, so no pass falls back to full
        # planning and the first job a fresh plan sees is asked through R6
        assert on_taken


# ----------------------------------------------------------------------
# shard map construction
# ----------------------------------------------------------------------
class TestShardMap:
    def test_balanced_contiguous_split(self):
        cluster = Cluster.homogeneous(10, 8)
        shard_map = ShardMap.build(cluster, 3)
        sizes = [len(s.nodes) for s in shard_map.shards]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        flat = [n for s in shard_map.shards for n in s.nodes]
        assert flat == sorted(flat)  # contiguous ascending ⇒ global order

    def test_partitions_never_mix(self):
        cluster = Cluster.homogeneous(10, 8, dynamic_partition_nodes=4)
        shard_map = ShardMap.build(cluster, 2)
        for shard in shard_map.shards:
            partitions = {cluster.node(n).partition for n in shard.nodes}
            assert len(partitions) == 1

    def test_more_shards_than_nodes(self):
        cluster = Cluster.homogeneous(2, 8)
        shard_map = ShardMap.build(cluster, 8)
        assert len(shard_map) == 2

    def test_capable_shards_and_spanning(self):
        cluster = Cluster.homogeneous(8, 4)
        shard_map = ShardMap.build(cluster, 2)
        assert len(shard_map.capable_shards(cluster, ResourceRequest(cores=8))) == 2
        # more cores than any single shard holds ⇒ no capable shard
        assert shard_map.capable_shards(cluster, ResourceRequest(cores=20)) == ()

    def test_split_allocation(self):
        cluster = Cluster.homogeneous(4, 8)
        shard_map = ShardMap.build(cluster, 2)
        pieces = shard_map.split_allocation(Allocation({0: 8, 1: 4, 2: 8}))
        assert set(pieces) == {0, 1}
        assert dict(pieces[0].items()) == {0: 8, 1: 4}
        assert dict(pieces[1].items()) == {2: 8}


# ----------------------------------------------------------------------
# cluster-side caches and shard version counters
# ----------------------------------------------------------------------
class TestClusterShardBookkeeping:
    def test_free_maps_are_private_copies(self):
        cluster = Cluster.homogeneous(4, 8)
        a = cluster.free_by_node()
        a.pop(0)
        assert 0 in cluster.free_by_node()
        b = cluster.free_for_nodes((0, 1))
        b[0] = 0
        assert cluster.free_for_nodes((0, 1))[0] == 8

    def test_free_for_nodes_skips_down(self):
        cluster = Cluster.homogeneous(4, 8)
        cluster.fail_node(1)
        assert set(cluster.free_for_nodes((0, 1, 2))) == {0, 2}

    def test_shard_versions_bump_only_touched_shard(self):
        cluster = Cluster.homogeneous(4, 8)
        cluster.install_shard_index({0: 0, 1: 0, 2: 1, 3: 1}, 2)
        alloc = Allocation({0: 4})
        cluster.claim(alloc)
        assert cluster.shard_versions == [1, 0]
        cluster.release(alloc)
        assert cluster.shard_versions == [2, 0]
        cluster.fail_node(3)
        assert cluster.shard_versions == [2, 1]
        cluster.recover_node(3)
        assert cluster.shard_versions == [2, 2]


# ----------------------------------------------------------------------
# evolving_ify
# ----------------------------------------------------------------------
class TestEvolvingIfy:
    def test_seeded_and_counted(self):
        base = make_random_workload(100, 64, evolving_share=0.0, seed=1)
        assert base.evolving_jobs == 0
        evolved = evolving_ify(base, 0.25, seed=7)
        assert evolved.evolving_jobs == 25
        again = evolving_ify(base, 0.25, seed=7)
        picked = [s.evolution is not None for s in evolved.specs]
        assert picked == [s.evolution is not None for s in again.specs]
        other = evolving_ify(base, 0.25, seed=8)
        assert picked != [s.evolution is not None for s in other.specs]
        assert base.evolving_jobs == 0  # input untouched

    def test_already_evolving_left_alone(self):
        base = make_random_workload(50, 64, evolving_share=1.0, seed=3)
        evolved = evolving_ify(base, 0.5, seed=1)
        assert evolved.evolving_jobs == base.evolving_jobs
        assert [s.evolution for s in evolved.specs] == [
            s.evolution for s in base.specs
        ]

    def test_runs_and_grows(self):
        base = make_random_workload(
            40, 32, evolving_share=0.0, size_range=(1, 16), seed=5
        )
        evolved = evolving_ify(base, 0.5, seed=9)
        system = BatchSystem(
            num_nodes=4,
            cores_per_node=8,
            config=MauiConfig(reservation_depth=5, reservation_delay_depth=5),
        )
        evolved.submit_to(system)
        system.run(max_events=5_000_000)
        metrics = system.metrics()
        assert metrics.completed_jobs == 40
        assert metrics.satisfied_dyn_jobs > 0

    def test_fraction_out_of_range_rejected(self):
        base = make_random_workload(10, 64, evolving_share=0.0, seed=1)
        for bad in (-0.1, 1.1, 2.0):
            with pytest.raises(ValueError, match=r"fraction must be in \[0, 1\]"):
                evolving_ify(base, bad, seed=1)
        # the boundaries themselves are legal
        assert evolving_ify(base, 0.0, seed=1).evolving_jobs == 0
        assert evolving_ify(base, 1.0, seed=1).evolving_jobs == 10
