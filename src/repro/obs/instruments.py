"""Instrument tables: every metric that mirrors a count the core keeps.

The server, scheduler, service and fault injector already count what they
do — in the shared :class:`~repro.sim.events.TraceLog`, in their ``stats``
dicts, in the queues and the cluster themselves.  The metrics *read* those
when the registry is read; nothing in the core pushes a second copy, so a
mirror costs a run nothing, telemetry on or off, and cannot drift from its
source.  Each mirrored metric is one row of one table below (name, help
text, where it is read from); ``docs/OBSERVABILITY.md`` § Instruments is
the human-readable catalogue, kept equal to the registry by
``tests/test_obs_pipeline.py``.

What is still pushed is what is *measured* rather than mirrored: the two
wall-clock histograms with their spans (:class:`SchedulerInstruments`),
the busy-core integral (``Telemetry.on_busy_change``) and what the ledger,
profiler, fairness observatory and SLO engine register for themselves —
those are the hook sites the is-None checks in the core still guard.
"""

from __future__ import annotations

from functools import partial

from repro.sim.events import EventKind

__all__ = [
    "SCHEDULER_COUNTERS", "SERVICE_COUNTERS", "FAULT_COUNTERS", "DELIVERY_COUNTERS",
    "LIFECYCLE_COUNTERS", "DEPTH_GAUGES", "SchedulerInstruments", "mirror_stats", "mirror_server",
]

#: ``MauiScheduler.stats`` — rows are (stats key, metric, help)
SCHEDULER_COUNTERS = (
    ("iterations", "repro_sched_iterations_total", "Scheduling iterations run"),
    ("iterations_skipped", "repro_sched_iterations_skipped_total", "Scheduler wake-ups skipped (no state change since last pass)"),
    ("jobs_backfilled", "repro_sched_backfill_starts_total", "Backfill starts"),
    ("preemptions", "repro_sched_preemptions_total", "Scheduler-initiated preemptions"),
    ("reservations_created", "repro_sched_reservations_total", "Reservations created"),
    ("malleable_shrinks", "repro_sched_malleable_shrinks_total", "Malleable shrink operations"),
    ("jobs_molded", "repro_sched_jobs_molded_total", "Moldable jobs started below requested size"),
    ("total_delay_charged", "repro_sched_delay_charged_seconds_total", "Foreign delay charged to DFS ledgers [s]"),
)

#: ``SchedulerService.stats`` — these count *service commands*, not
#: scheduler decisions: the scheduler-side rows keep their exact meaning
#: whether the stack is driven directly or through the service, which is
#: part of the service's bit-identity contract
SERVICE_COUNTERS = (
    ("commands", "repro_service_commands_total", "Service API commands executed"),
    ("submitted", "repro_service_submissions_total", "Jobs admitted through the service"),
    ("admission_rejected", "repro_service_admission_rejects_total", "Submissions refused by the admission policy"),
    ("cancelled", "repro_service_cancels_total", "Cancel commands executed"),
    ("grow_requests", "repro_service_grow_requests_total", "Dynamic grant requests entered through the service"),
    ("cycles", "repro_service_cycles_total", "Backend advance cycles (drain batches)"),
)

#: ``FaultInjector.stats``
FAULT_COUNTERS = (
    ("node_failures", "repro_faults_node_failures_total", "Injected node failures"),
    ("node_recoveries", "repro_faults_node_recoveries_total", "Injected node recoveries"),
    ("jobs_requeued", "repro_faults_jobs_requeued_total", "Jobs requeued by injected failures"),
    ("lost_core_seconds", "repro_faults_lost_core_seconds_total", "Core-seconds of completed work discarded by failure requeues"),
    ("downtime_seconds", "repro_faults_downtime_seconds_total", "Node-downtime accumulated over completed repairs [s]"),
)

#: ``TransientFaults.stats`` — only exists when a fault model enables
#: transient delivery drops
DELIVERY_COUNTERS = (
    ("delivery_drops", "repro_faults_delivery_drops_total", "Grant delivery attempts dropped by transient faults"),
    ("delivery_retries", "repro_faults_delivery_retries_total", "Grant delivery retries scheduled"),
    ("delivery_degraded", "repro_faults_delivery_degraded_total", "Dynamic requests degraded after exhausting delivery retries"),
)


def _first_grant(job) -> bool:
    return job.dyn_granted == 1 and job.is_evolving


#: the server's trace — rows are (metric, help, event kinds counted, and
#: optionally a condition on the event's job as it stands at the event)
LIFECYCLE_COUNTERS = (
    ("repro_jobs_submitted_total", "Jobs submitted (qsub)", (EventKind.JOB_SUBMIT,), None),
    ("repro_jobs_started_total", "Jobs started (priority or backfill)", (EventKind.JOB_START, EventKind.BACKFILL_START), None),
    ("repro_jobs_completed_total", "Jobs that completed normally", (EventKind.JOB_END,), None),
    ("repro_jobs_aborted_total", "Jobs aborted (walltime, qdel, failures)", (EventKind.JOB_ABORT,), None),
    ("repro_jobs_preempted_total", "Preemptions (job requeued)", (EventKind.PREEMPT,), None),
    ("repro_dyn_requests_total", "Dynamic requests entering the FIFO", (EventKind.DYN_REQUEST,), None),
    ("repro_dyn_grants_total", "Dynamic requests granted", (EventKind.DYN_GRANT,), None),
    ("repro_dyn_rejects_total", "Dynamic requests rejected", (EventKind.DYN_REJECT,), None),
    ("repro_dyn_satisfied_jobs_total", "Evolving jobs whose first dynamic request was granted (Table II)", (EventKind.DYN_GRANT,), _first_grant),
)

#: the server's live structures — rows are (metric, help, reader)
DEPTH_GAUGES = (
    ("repro_queue_depth", "Queued (static) jobs", lambda server: len(server.queue)),
    ("repro_dyn_queue_depth", "Pending dynamic requests", lambda server: len(server.dyn_queue)),
    ("repro_running_jobs", "Jobs currently holding resources", lambda server: server.active_count),
    ("repro_busy_cores", "Cores currently allocated to jobs", lambda server: server.cluster.used_cores),
)


def mirror_stats(telemetry, table, stats: dict) -> None:
    """Export ``stats`` as ``table``'s counters, read when the registry is."""
    if telemetry is None or not telemetry.enabled:
        return
    registry = telemetry.registry
    counters = [
        (key, registry.counter(name, help_text)) for key, name, help_text in table
    ]

    def refresh() -> None:
        for key, counter in counters:
            counter.set_total(stats[key])

    registry.on_collect(refresh)


def mirror_server(telemetry, server) -> None:
    """Lifecycle counters off the server's trace (one subscriber keyed on
    the event kind), depth gauges off its live structures."""
    if telemetry is None or not telemetry.enabled:
        return
    registry = telemetry.registry
    by_kind: dict[EventKind, list] = {}
    for name, help_text, kinds, when in LIFECYCLE_COUNTERS:
        counter = registry.counter(name, help_text)
        for kind in kinds:
            by_kind.setdefault(kind, []).append((counter, when))

    def on_event(event) -> None:
        for counter, when in by_kind.get(event.kind, ()):
            if when is None or when(server.jobs[event.payload["job_id"]]):
                counter.inc()

    server.trace.subscribe(on_event)
    for name, help_text, read in DEPTH_GAUGES:
        registry.gauge(name, help_text, callback=partial(read, server))


class SchedulerInstruments:
    """The scheduler's wall-clock measurements, and its mirrors' wiring."""

    def __init__(self, telemetry, stats: dict, dfs) -> None:
        registry = telemetry.registry
        self.tracer = telemetry.tracer
        mirror_stats(telemetry, SCHEDULER_COUNTERS, stats)

        def refresh_ledger() -> None:
            # one series per principal in ``dfs.snapshot()``; one that has
            # left the ledger since reads 0 through its callback
            for kind, name in dfs.snapshot():
                registry.gauge(
                    "repro_dfs_ledger_delay_seconds",
                    "Cumulative delay charged this DFS interval",
                    labels={"kind": kind, "principal": name},
                    callback=partial(dfs.cumulative_delay, kind, name),
                )

        registry.on_collect(refresh_ledger)
        self.iteration_seconds = registry.histogram(
            "repro_sched_iteration_seconds",
            "Wall-clock cost of one full scheduling iteration",
        )
        self.dyn_handle_seconds = registry.histogram(
            "repro_dyn_handle_seconds",
            "Wall-clock cost of servicing one dynamic request (Fig. 12)",
        )

    def end_iteration(self, sim_time: float, wall_ns: int, events: int) -> None:
        self.iteration_seconds.observe(wall_ns / 1e9)
        self.tracer.record("sched_iteration", sim_time, wall_ns, events)

    def end_dyn_handle(self, sim_time: float, wall_ns: int, events: int) -> None:
        self.dyn_handle_seconds.observe(wall_ns / 1e9)
        self.tracer.record("dyn_request", sim_time, wall_ns, events)
