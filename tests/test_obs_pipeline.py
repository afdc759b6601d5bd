"""Streaming trace pipeline: subscribers, ring buffer, JSONL, no-op path."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    JsonlTraceWriter,
    Telemetry,
    export_jsonl,
    read_jsonl,
)
from repro.metrics.stats import busy_core_seconds
from repro.sim.events import EventKind, TraceLog
from repro.system import BatchSystem
from repro.workloads.esp import make_esp_workload
from repro.workloads.random_workload import make_random_workload


def run_system(telemetry=None, trace_maxlen=None, *, seed=3, num_jobs=40):
    system = BatchSystem(4, 8, telemetry=telemetry, trace_maxlen=trace_maxlen)
    make_random_workload(
        num_jobs,
        32,
        evolving_share=0.4,
        mean_interarrival=30.0,
        size_range=(1, 16),
        seed=seed,
    ).submit_to(system)
    system.run(max_events=1_000_000)
    return system


def normalized(events):
    """Events with job ids renamed by first appearance (seq is process-global)."""
    ids: dict = {}
    out = []
    for e in events:
        payload = {
            k: (ids.setdefault(v, f"J{len(ids)}") if k == "job_id" else v)
            for k, v in e.payload.items()
        }
        out.append((e.time, e.kind, payload))
    return out


class TestSubscribers:
    def test_fanout_is_synchronous_and_in_subscription_order(self):
        log = TraceLog()
        calls: list[tuple[str, float]] = []
        log.subscribe(lambda e: calls.append(("first", e.time)))
        log.subscribe(lambda e: calls.append(("second", e.time)))
        log.record(1.0, EventKind.JOB_SUBMIT, job_id="j")
        log.record(2.0, EventKind.JOB_START, job_id="j")
        assert calls == [
            ("first", 1.0),
            ("second", 1.0),
            ("first", 2.0),
            ("second", 2.0),
        ]

    def test_unsubscribe(self):
        log = TraceLog()
        seen: list = []
        cb = log.subscribe(seen.append)
        log.record(0.0, EventKind.JOB_SUBMIT)
        log.unsubscribe(cb)
        log.record(1.0, EventKind.JOB_SUBMIT)
        assert len(seen) == 1
        with pytest.raises(ValueError):
            log.unsubscribe(cb)

    def test_stream_matches_engine_determinism(self):
        """Two identical runs stream byte-identical (normalized) sequences."""
        streams = []
        for _ in range(2):
            system = BatchSystem(4, 8)
            seen: list = []
            system.trace.subscribe(seen.append)
            make_random_workload(
                30, 32, evolving_share=0.4, mean_interarrival=30.0, seed=5
            ).submit_to(system)
            system.run(max_events=1_000_000)
            assert seen == list(system.trace)  # stream == retained log
            streams.append(normalized(seen))
        assert streams[0] == streams[1]


class TestRingBuffer:
    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            TraceLog(maxlen=0)

    def test_bounded_log_keeps_newest_and_counts_drops(self):
        log = TraceLog(maxlen=3)
        for t in range(5):
            log.record(float(t), EventKind.JOB_SUBMIT, job_id=f"j{t}")
        assert len(log) == 3
        assert [e.time for e in log] == [2.0, 3.0, 4.0]
        assert log.dropped == 2
        assert log.total_recorded == 5
        assert [e.time for e in log.tail(2)] == [3.0, 4.0]

    def test_subscribers_see_dropped_events_too(self):
        log = TraceLog(maxlen=2)
        seen: list = []
        log.subscribe(seen.append)
        for t in range(6):
            log.record(float(t), EventKind.JOB_SUBMIT)
        assert len(seen) == 6
        assert len(log) == 2

    def test_clear_resets_accounting(self):
        log = TraceLog(maxlen=2)
        for t in range(4):
            log.record(float(t), EventKind.JOB_SUBMIT)
        log.clear()
        assert (len(log), log.dropped, log.total_recorded) == (0, 0, 0)

    def test_bounded_utilization_matches_unbounded(self):
        """Utilization reads the server's busy integral, not the ring."""
        full = run_system(telemetry=Telemetry(sample_interval=None))
        bounded = run_system(
            telemetry=Telemetry(sample_interval=None), trace_maxlen=50
        )
        assert bounded.trace.dropped > 0
        assert bounded.metrics().utilization == full.metrics().utilization

    def test_bounded_utilization_without_telemetry_is_exact(self):
        """A ring that dropped events still gives the exact utilization,
        with no telemetry attached."""
        bounded = run_system(trace_maxlen=50)
        assert bounded.trace.dropped > 0
        assert bounded.metrics().utilization == run_system().metrics().utilization


def _esp_to(until, trace_maxlen):
    system = BatchSystem(
        15, 8,
        telemetry=Telemetry(sample_interval=None, windows=3600.0),
        trace_maxlen=trace_maxlen,
    )
    make_esp_workload(120, seed=2014).submit_to(system)
    system.engine.run(until=until)
    return system


@pytest.fixture(scope="module")
def esp_whole_trace():
    return _esp_to(None, None).trace


@pytest.mark.parametrize("cut", [500.0, 2000.0, 3000.0, 5750.0, 9250.0, 11500.0])
def test_mid_run_utilization_is_the_replay_to_the_latest_end(cut, esp_whole_trace):
    """Cut mid-run with a ring of 50 events, the metrics and the windows
    each give the replay of the whole trace up to their latest end — not
    the integral up to the last core change, which lies past it (at these
    cuts that read up to 121 %)."""
    system = _esp_to(cut, 50)
    assert system.trace.dropped > 0
    m = system.metrics()
    busy = busy_core_seconds(esp_whole_trace, m.first_submit, m.last_end)
    assert m.utilization == busy / (m.total_cores * m.workload_time)
    windows = system.telemetry.windows
    busy = busy_core_seconds(esp_whole_trace, 0.0, windows.last_end)
    assert windows.utilization == busy / (windows.total_cores * windows.workload_time)


class TestJsonl:
    def test_round_trip_reproduces_identical_events(self):
        system = run_system()
        # the workload starts jobs, so payloads include int-keyed
        # cores_by_node maps — the round-trip must revive those keys
        assert any(e.kind is EventKind.JOB_START for e in system.trace)
        buf = io.StringIO()
        written = export_jsonl(system.trace, buf)
        assert written == len(system.trace)
        buf.seek(0)
        restored = read_jsonl(buf)
        assert list(restored) == list(system.trace)

    def test_streaming_writer_sees_every_event_despite_ring(self):
        buf = io.StringIO()
        system = BatchSystem(4, 8, trace_maxlen=20)
        system.trace.subscribe(JsonlTraceWriter(buf))
        make_random_workload(
            30, 32, evolving_share=0.4, mean_interarrival=30.0, seed=5
        ).submit_to(system)
        system.run(max_events=1_000_000)
        assert system.trace.dropped > 0
        buf.seek(0)
        restored = read_jsonl(buf)
        assert len(restored) == system.trace.total_recorded

    def test_file_round_trip(self, tmp_path):
        system = run_system(num_jobs=10)
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(system.trace, path)
        assert list(read_jsonl(path)) == list(system.trace)


class TestDisabledPath:
    def test_enabled_telemetry_does_not_perturb_the_simulation(self):
        plain = run_system()
        instrumented = run_system(telemetry=Telemetry())
        assert normalized(plain.trace) == normalized(instrumented.trace)

    def test_uninstrumented_components_have_no_obs(self):
        """Uninstrumented (``telemetry=None``) = nobody reads the
        components: no subscriber on the trace, no windows on the server."""
        system = run_system()
        assert system.telemetry is None
        assert system.trace.subscribers == ()
        assert system.server._windows is None


def test_export_without_profiling_is_fixed_by_the_seed():
    """Two same-seed Dyn-HP runs in one process export the same bytes: no
    wall-clock reading reaches the registry unless the phase profiler is
    on, so no ``*_seconds`` histogram is exported either."""
    import re

    from repro.experiments.configs import configuration
    from repro.experiments.runner import run_esp_configuration
    from repro.obs import to_prometheus_text

    dyn_hp = configuration("Dyn-HP")
    first, second = (
        to_prometheus_text(
            run_esp_configuration(
                dyn_hp, seed=2014, telemetry=Telemetry(sample_interval=None)
            ).telemetry.registry
        )
        for _ in range(2)
    )
    assert "repro_jobs_completed_total 230" in first
    assert first == second
    assert not re.search(r"^# TYPE \w+_seconds histogram$", first, flags=re.M)


class TestSampler:
    def test_series_recorded_and_engine_drains(self):
        telemetry = Telemetry(sample_interval=60.0)
        system = run_system(telemetry=telemetry)
        # the run returned, so the sampler stopped re-arming itself
        assert telemetry.sampler is not None
        assert telemetry.sampler.samples_taken > 1
        util = telemetry.series["utilization"]
        assert util[0][0] == 0.0
        assert all(0.0 <= v <= 1.0 for _, v in util)
        # per-sample spacing follows the configured interval
        times = [t for t, _ in util]
        assert times == sorted(times)

    def test_busy_integral_matches_trace_replay(self):
        """The server's busy integral is the trace replay to the last end,
        bit for bit, and so are the windows' and the metrics' utilization:
        the four Table II configurations with and without faults, and the
        SLURM-style baseline, whose merges move cores without a change."""
        from repro.baselines.slurm_style import (
            make_slurm_esp_workload,
            run_slurm_esp,
        )
        from repro.experiments.configs import all_configurations
        from repro.experiments.resilience import default_fault_model
        from repro.maui.config import MauiConfig

        def replayed(system):
            m = system.metrics()
            busy = busy_core_seconds(system.trace, m.first_submit, m.last_end)
            assert system.server.busy_at_last_end == busy
            assert m.busy_core_seconds == busy
            return m

        for config in all_configurations():
            for faults in (None, default_fault_model()):
                system = BatchSystem(
                    15, 8, config.maui,
                    telemetry=Telemetry(sample_interval=None, windows=3600.0),
                    fault_model=faults,
                )
                make_esp_workload(
                    120, dynamic=config.dynamic_workload, seed=2014
                ).submit_to(system)
                system.run(max_events=10_000_000)
                m = replayed(system)
                assert system.telemetry.windows.utilization == m.utilization

        system = BatchSystem(
            15, 8, MauiConfig(reservation_depth=5, reservation_delay_depth=5)
        )
        make_slurm_esp_workload(system, seed=2014).submit_to(system)
        system.run(max_events=5_000_000)
        assert any("merged_from" in e.payload for e in system.trace)
        m = replayed(system)
        # the helpers left out of the baseline's records hold no cores of
        # their own for any time, so leaving them out moves nothing
        assert run_slurm_esp(seed=2014).busy_core_seconds == m.busy_core_seconds


# ----------------------------------------------------------------------
# metrics read their sources: the trace, the queues, the cluster, the ledger
# ----------------------------------------------------------------------
#: metric -> the event kinds it counts, written out here independently of
#: ``repro.obs.instruments.LIFECYCLE_COUNTERS``
_LIFECYCLE = {
    "repro_jobs_submitted_total": (EventKind.JOB_SUBMIT,),
    "repro_jobs_started_total": (EventKind.JOB_START, EventKind.BACKFILL_START),
    "repro_jobs_completed_total": (EventKind.JOB_END,),
    "repro_jobs_aborted_total": (EventKind.JOB_ABORT,),
    "repro_jobs_preempted_total": (EventKind.PREEMPT,),
    "repro_dyn_requests_total": (EventKind.DYN_REQUEST,),
    "repro_dyn_grants_total": (EventKind.DYN_GRANT,),
    "repro_dyn_rejects_total": (EventKind.DYN_REJECT,),
}


def _assert_metrics_equal_their_sources(system):
    value = system.telemetry.registry.value
    server, trace = system.server, system.trace
    assert trace.dropped == 0
    for name, kinds in _LIFECYCLE.items():
        assert value(name) == sum(trace.count(kind) for kind in kinds), name
    assert value("repro_dyn_satisfied_jobs_total") == sum(
        1 for job in server.jobs.values() if job.is_evolving and job.dyn_granted > 0
    )
    assert value("repro_queue_depth") == len(server.queue)
    assert value("repro_dyn_queue_depth") == len(server.dyn_queue)
    assert value("repro_running_jobs") == server.active_count
    assert value("repro_busy_cores") == sum(
        j.allocation.total_cores for j in server.active_jobs()
    )


def _dfs_series(registry):
    return {
        tuple(value for _, value in instrument.labels): instrument.value
        for instrument in registry.collect()
        if instrument.name == "repro_dfs_ledger_delay_seconds"
    }


class TestMetricsReadTheirSources:
    def test_qdel_empties_the_depth_gauge_and_counts_the_abort(self):
        from repro.cluster.allocation import ResourceRequest
        from repro.jobs.job import Job

        telemetry = Telemetry(sample_interval=None)
        system = BatchSystem(1, 4, telemetry=telemetry)
        for user in ("first", "second"):
            job = system.submit(
                Job(request=ResourceRequest(cores=4), walltime=100.0, user=user)
            )
        system.run(until=1.0)
        assert list(system.server.queue) == [job]
        system.server.cancel_queued(job)
        value = telemetry.registry.value
        assert value("repro_queue_depth") == len(system.server.queue) == 0
        assert (
            value("repro_jobs_aborted_total")
            == system.trace.count(EventKind.JOB_ABORT)
            == 1
        )

    def test_merged_stub_end_is_a_completion(self):
        from repro.cluster.allocation import Allocation, ResourceRequest
        from repro.cluster.machine import Cluster
        from repro.jobs.job import Job
        from repro.rms.server import Server
        from repro.sim.engine import Engine

        telemetry = Telemetry(sample_interval=None)
        server = Server(Engine(), Cluster.homogeneous(2, 8), telemetry=telemetry)
        parent, stub = (
            server.submit(Job(request=ResourceRequest(cores=8), walltime=100.0))
            for _ in range(2)
        )
        server.start_job(parent, Allocation({0: 8}))
        server.start_job(stub, Allocation({1: 8}))
        server.merge_allocations(stub, parent)
        assert server.trace.count(EventKind.JOB_END) == 1
        assert telemetry.registry.value("repro_jobs_completed_total") == 1
        assert telemetry.registry.value("repro_running_jobs") == 1

    def test_dfs_gauges_follow_the_ledger_across_an_interval_roll(self):
        import dataclasses

        from repro.experiments.configs import DYN_500
        from repro.workloads.esp import make_esp_workload

        telemetry = Telemetry(sample_interval=None)
        maui = dataclasses.replace(DYN_500.maui, scheduler_shards=1)
        system = BatchSystem(8, 4, maui, telemetry=telemetry)
        make_esp_workload(32, dynamic=True, seed=2014).submit_to(system)
        dfs = system.scheduler.dfs
        assert dfs.config.decay == 0.0
        charged: set = set()
        while system.engine.peek_time() is not None:
            system.run(until=system.engine.now + 600.0)
            snapshot = dfs.snapshot()
            charged.update(snapshot)
            series = _dfs_series(telemetry.registry)
            # every series is a principal seen charged, and reads the
            # ledger as it stands now: 0 once a roll has dropped it
            assert set(series) <= charged
            for key, delay in series.items():
                assert delay == snapshot.get(key, 0.0)
            assert set(snapshot) <= set(series)
        assert dfs.intervals_rolled > 0 and charged
        dfs.roll(dfs.interval_start + dfs.config.interval)
        assert dfs.snapshot() == {}
        assert set(_dfs_series(telemetry.registry).values()) == {0.0}

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.permutations(
            ["hold", "release", "qdel", "preempt", "fail", "recover", "run", "run"]
        ),
        st.integers(min_value=0, max_value=7),
    )
    def test_property_counters_and_gauges_equal_trace_and_live_state(
        self, seed, ops, pick
    ):
        """Holds, a qdel, a preemption and a node failure into a small
        random workload: after every step each lifecycle counter equals
        the number of its events in the (unbounded) trace and each depth
        gauge the structure it names."""
        telemetry = Telemetry(sample_interval=None)
        system = BatchSystem(4, 8, telemetry=telemetry)
        make_random_workload(
            16, 32, evolving_share=0.4, mean_interarrival=20.0,
            size_range=(1, 16), seed=seed,
        ).submit_to(system)
        server = system.server
        for step, op in enumerate(ops, start=1):
            system.run(until=step * 90.0)
            queued = [j for j in server.queue if j.hold is None]
            held = [j for j in server.queue if j.hold is not None]
            active = server.active_jobs()
            if op == "hold" and queued:
                server.hold_job(queued[pick % len(queued)])
            elif op == "release" and held:
                server.release_hold(held[pick % len(held)])
            elif op == "qdel" and queued:
                server.cancel_queued(queued[pick % len(queued)])
            elif op == "preempt" and active:
                server.preempt_job(active[pick % len(active)])
            elif op == "fail":
                server.handle_node_failure(pick % 4)
            elif op == "recover":
                server.recover_node(pick % 4)
            _assert_metrics_equal_their_sources(system)
        for job in list(server.queue):
            server.release_hold(job)
        for node in range(4):
            server.recover_node(node)
        system.run(max_events=1_000_000)
        assert not server.queue and server.active_count == 0
        _assert_metrics_equal_their_sources(system)


def test_catalogue_equals_the_registry():
    """``docs/OBSERVABILITY.md`` § Instruments names exactly the metrics an
    everything-on run exports: ledger, profiler, windows, fairness and an
    SLO that breaches, node failures with dropped grant deliveries, a DFS
    cap that charges, all driven through the service."""
    import asyncio
    import re
    from pathlib import Path

    from repro.experiments.configs import DYN_500
    from repro.faults import FaultModel
    from repro.service import SchedulerService, SimBackend
    from repro.workloads.esp import make_esp_workload

    doc = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
    section = doc.read_text().split("\n## Instruments\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"^\| `(repro_[a-z_]+)", section, flags=re.M))

    telemetry = Telemetry(
        decision_ledger=True, profiling=True, windows=600.0, fairness=True,
        slo=["p99_wait < 1s"],
    )
    backend = SimBackend(
        num_nodes=8, cores_per_node=4, config=DYN_500.maui, telemetry=telemetry,
        fault_model=FaultModel(
            seed=7, mtbf=4_000.0, mttr=300.0, grant_delivery_failure_rate=0.3
        ),
    )
    exported: set[str] = set()

    async def drive():
        async with SchedulerService(backend) as service:
            for spec in make_esp_workload(32, dynamic=True, seed=2014):
                await service.submit(spec)
            # the DFS ledger empties at every interval roll: read the
            # registry along the way, as a scraper would
            while backend.core.engine.peek_time() is not None:
                await service.run_until(backend.now + 600.0)
                exported.update(i.name for i in telemetry.registry.collect())

    asyncio.run(drive())
    assert exported - documented == set(), "exported but not in the catalogue"
    assert documented - exported == set(), "in the catalogue but not exported"
