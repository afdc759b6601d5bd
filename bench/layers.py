"""The benchmark's metric tables, and the per-layer numbers behind them.

``END_TO_END`` and ``PER_LAYER`` are the single definition of every metric
name, unit, direction and regression bound; ``BENCHMARK.json`` at the repo
root repeats them for the driver and ``test_smoke.py`` checks the two agree.

Each per-layer metric also names the end-to-end metric it should move and
the workload on which the layer does most of its work — written down here
before anything is measured, so a later perf change can be checked against
the prediction (see README.md, "Layer -> end-to-end map").
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "UNIVERSAL", "layer_metrics"]

#: name -> (unit, better, bound, workloads it is defined on or None for all).
#: ``bound`` is the share of the baseline median by which the metric may
#: worsen before ``--compare`` calls it a regression; 0.0 means exact.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, None),
    "wall_s": ("s", "lower", 0.25, None),
    "jobs_per_s": ("jobs/s", "higher", 0.25, None),
    "peak_rss_mb": ("MiB", "lower", 0.10, None),
    "cmd_p50_ms": ("ms", "lower", 0.25, ("service_tenants",)),
    "cmd_p99_ms": ("ms", "lower", 0.25, ("service_tenants",)),
    "table2_util_err_pp": ("pp", "lower", 0.0, ("esp_dyn",)),
    "table2_satisfied_err": ("jobs", "lower", 0.0, ("esp_dyn",)),
}

#: the end-to-end metrics that exist on every workload — the set the
#: driver contract (``--trace 0``) reports and bounds
UNIVERSAL = tuple(n for n, spec in END_TO_END.items() if spec[3] is None)

#: (name, unit, better, exact, should move, on) — ``exact`` marks counts
#: that must repeat exactly between runs of one commit and seed.
#:
#: Self times are shares of the traced wall clock (``*_pct``): they tile it
#: (their sum is ``trace.coverage``), a share is the most ``wall_s`` can
#: gain from that layer, and — unlike seconds — a share of 0 on a workload
#: where the layer does no work is not mistaken for a time that never
#: varies.  Absolute seconds per call path are in the results file.
PER_LAYER = (
    # workloads
    ("workloads.parse_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("workloads.evolve_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("workloads.generate_pct", "%", "lower", False, "wall_s", "esp_dyn"),
    ("workloads.submit_pct", "%", "lower", False, "wall_s peak_rss_mb", "replay_shallow"),
    ("workloads.jobs", "count", "higher", True, "jobs_per_s", "replay_shallow"),
    # system
    ("system.construct_pct", "%", "lower", False, "wall_s", "esp_dyn"),
    # sim
    ("sim.run_total_s", "s", "lower", False, "wall_s", "replay_shallow"),
    ("sim.self_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("sim.trace_record_pct", "%", "lower", False, "wall_s", "replay_observed"),
    ("sim.events", "count", "lower", True, "wall_s", "replay_shallow"),
    ("sim.events_per_s", "1/s", "higher", False, "wall_s", "replay_shallow"),
    ("sim.timestamps", "count", "lower", True, "wall_s", "replay_shallow"),
    ("sim.pending_at_idle", "count", "lower", True, "wall_s", "service_tenants"),
    # rms
    ("rms.self_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("rms.calls", "count", "lower", True, "wall_s", "replay_shallow"),
    ("rms.submit_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("rms.start_job_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("rms.complete_job_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("rms.dyn_request_pct", "%", "lower", False, "wall_s", "esp_dyn"),
    ("rms.grant_dynamic_pct", "%", "lower", False, "wall_s", "esp_dyn"),
    ("rms.reject_dynamic_calls", "count", "lower", True, "wall_s", "esp_dyn"),
    # maui
    ("maui.iteration_total_s", "s", "lower", False, "wall_s cmd_p99_ms", "replay_deep"),
    ("maui.iteration_self_pct", "%", "lower", False, "wall_s cmd_p99_ms", "replay_shallow"),
    ("maui.wake_self_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("maui.iterations", "count", "lower", True, "wall_s", "replay_shallow"),
    ("maui.iterations_skipped", "count", "higher", True, "wall_s", "replay_shallow"),
    ("maui.iteration_us", "us", "lower", False, "wall_s cmd_p99_ms", "replay_deep"),
    ("maui.iterations_per_job", "ratio", "lower", True, "wall_s", "replay_shallow"),
    ("maui.productive_ratio", "ratio", "higher", True, "wall_s", "replay_shallow"),
    ("maui.shard_passes_skipped", "count", "higher", True, "wall_s", "replay_deep"),
    ("maui.prioritize_pct", "%", "lower", False, "wall_s", "replay_deep"),
    ("maui.delay_pct", "%", "lower", False, "wall_s", "esp_dyn"),
    ("maui.dfs_pct", "%", "lower", False, "wall_s", "esp_dyn"),
    ("maui.dyn_handle_s", "s", "lower", False, "wall_s", "esp_dyn"),
    ("maui.dyn_granted", "count", "higher", True, "table2_satisfied_err", "esp_dyn"),
    ("maui.dyn_rejected", "count", "lower", True, "table2_satisfied_err", "esp_dyn"),
    ("maui.jobs_started", "count", "higher", True, "jobs_per_s", "replay_shallow"),
    ("maui.jobs_backfilled", "count", "higher", True, "jobs_per_s", "replay_deep"),
    ("maui.reservations_created", "count", "lower", True, "wall_s", "replay_deep"),
    # cluster
    ("cluster.profile_builds", "count", "lower", True, "wall_s", "replay_deep"),
    ("cluster.profile_cache_hits", "count", "higher", True, "wall_s", "replay_deep"),
    ("cluster.profile_advances", "count", "higher", True, "wall_s", "replay_deep"),
    ("cluster.profile_advance_fallbacks", "count", "lower", True, "wall_s", "replay_deep"),
    ("cluster.profile_hit_ratio", "ratio", "higher", True, "wall_s", "replay_deep"),
    ("cluster.profile_update_pct", "%", "lower", False, "wall_s", "replay_deep"),
    ("cluster.earliest_fit_pct", "%", "lower", False, "wall_s", "replay_deep"),
    ("cluster.earliest_fit_calls", "count", "lower", True, "wall_s", "replay_deep"),
    ("cluster.fits_at_pct", "%", "lower", False, "wall_s", "replay_deep"),
    ("cluster.fits_at_calls", "count", "lower", True, "wall_s", "replay_deep"),
    ("cluster.find_allocation_pct", "%", "lower", False, "wall_s", "esp_dyn"),
    ("cluster.find_allocation_calls", "count", "lower", True, "wall_s", "esp_dyn"),
    ("cluster.claim_release_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    # obs
    ("obs.fold_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("obs.fold_calls", "count", "lower", True, "wall_s", "replay_shallow"),
    ("obs.windows_pct", "%", "lower", False, "wall_s", "replay_shallow"),
    ("obs.ledger_pct", "%", "lower", False, "wall_s peak_rss_mb", "replay_observed"),
    ("obs.ledger_decisions", "count", "lower", True, "peak_rss_mb", "replay_observed"),
    ("obs.fairness_pct", "%", "lower", False, "wall_s", "replay_observed"),
    ("obs.slo_pct", "%", "lower", False, "wall_s", "replay_observed"),
    ("obs.sampler_pct", "%", "lower", False, "wall_s", "replay_observed"),
    ("obs.trace_events", "count", "lower", True, "peak_rss_mb", "replay_observed"),
    ("obs.export_pct", "%", "lower", False, "wall_s", "replay_observed"),
    ("obs.export_bytes", "bytes", "lower", False, "wall_s", "replay_observed"),
    # metrics
    ("metrics.collect_pct", "%", "lower", False, "wall_s", "replay_observed"),
    # apps
    ("apps.callback_pct", "%", "lower", False, "wall_s", "esp_dyn"),
    ("apps.callbacks", "count", "lower", True, "wall_s", "esp_dyn"),
    # service (zero on every other workload)
    ("service.commands", "count", "higher", True, "cmd_p50_ms", "service_tenants"),
    ("service.cycles", "count", "lower", True, "cmd_p99_ms", "service_tenants"),
    ("service.advance_total_pct", "%", "lower", False, "wall_s cmd_p99_ms", "service_tenants"),
    ("service.self_pct", "%", "lower", False, "cmd_p50_ms wall_s", "service_tenants"),
    ("service.events_per_cycle", "ratio", "lower", True, "cmd_p99_ms", "service_tenants"),
    ("service.admission_rejected", "count", "lower", True, "jobs_per_s", "service_tenants"),
    ("service.stalled_jobs", "count", "lower", True, "jobs_per_s", "service_tenants"),
    ("service.cmd_per_s", "1/s", "higher", False, "cmd_p50_ms cmd_p99_ms", "service_tenants"),
    # end-to-end accuracy that exists on one workload only, from the
    # untraced child of the traced pass (zero elsewhere)
    ("paper.table2_util_err_pp", "pp", "lower", True, "table2_util_err_pp", "esp_dyn"),
    ("paper.table2_satisfied_err", "jobs", "lower", True, "table2_satisfied_err", "esp_dyn"),
    # run level
    ("trace.coverage", "ratio", "higher", False, "-", "all"),
    ("trace.overhead_pct", "%", "lower", False, "-", "all"),
    ("trace.spans", "count", "lower", True, "-", "all"),
    ("trace.unresolved", "count", "lower", True, "-", "all"),
)


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced and one untraced child run.

    ``traced["spans"]`` maps span name -> ``{count, self_s, total_s}``;
    ``facts`` carries the program's own counters as the scenario read them
    from public attributes.
    """
    spans = traced["spans"]
    counters = traced["counters"]
    facts = traced["facts"]
    sched = facts.get("sched", {})
    service = facts.get("service") or {}
    wall = traced["wall_s"]

    def share(*names: str) -> float:
        """Self time of the named spans, in percent of the traced wall."""
        return 100.0 * sum(spans[n]["self_s"] for n in names if n in spans) / wall

    def layer_share(layer: str) -> float:
        return share(*(n for n in spans if n.startswith(layer + ".")))

    def total_s(name: str) -> float:
        return spans[name]["total_s"] if name in spans else 0.0

    def calls(*names: str) -> int:
        return sum(spans[n]["count"] for n in names if n in spans)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    jobs = facts["jobs"]
    iterations = sched.get("iterations", 0)
    events = counters.get("sim.events", 0)
    # time under no span at all.  On service_tenants that is the asyncio
    # front end plus the closed-loop clients, between start() and stop():
    # it is the service layer's own time, not a gap in the accounting.
    uncovered = 100.0 - share(*spans)
    service_self = share("service.advance", "service.backend")
    if service:
        service_self += uncovered
        uncovered = 0.0
    profile_hits = sched.get("profile_cache_hits", 0) + sched.get("profile_advances", 0)
    untraced_facts = untraced["facts"]
    table2 = untraced_facts.get("table2") or {}

    values = {
        "workloads.parse_pct": share("workloads.parse"),
        "workloads.evolve_pct": share("workloads.evolve"),
        "workloads.generate_pct": share("workloads.generate"),
        "workloads.submit_pct": share("workloads.submit"),
        "workloads.jobs": jobs,
        "system.construct_pct": share("system.construct"),
        "sim.run_total_s": total_s("sim.run"),
        "sim.self_pct": share("sim.run", "sim.dispatch"),
        "sim.trace_record_pct": share("sim.trace_record"),
        "sim.events": events,
        "sim.events_per_s": ratio(events, total_s("sim.run")),
        "sim.timestamps": counters.get("sim.timestamps", 0),
        "sim.pending_at_idle": facts["pending_at_idle"],
        "rms.self_pct": layer_share("rms"),
        "rms.calls": calls(*(n for n in spans if n.startswith("rms."))),
        "rms.submit_pct": share("rms.submit"),
        "rms.start_job_pct": share("rms.start_job"),
        "rms.complete_job_pct": share("rms.complete_job"),
        "rms.dyn_request_pct": share("rms.dyn_request"),
        "rms.grant_dynamic_pct": share("rms.grant_dynamic"),
        "rms.reject_dynamic_calls": calls("rms.reject_dynamic"),
        "maui.iteration_total_s": total_s("maui.iteration"),
        "maui.iteration_self_pct": share("maui.iteration"),
        "maui.wake_self_pct": share("maui.dispatch"),
        "maui.iterations": iterations,
        "maui.iterations_skipped": sched.get("iterations_skipped", 0),
        "maui.iteration_us": 1e6 * ratio(total_s("maui.iteration"), iterations),
        "maui.iterations_per_job": ratio(iterations, jobs),
        "maui.productive_ratio": ratio(
            counters.get("maui.productive_passes", 0), iterations
        ),
        "maui.shard_passes_skipped": sched.get("shard_passes_skipped", 0),
        "maui.prioritize_pct": share("maui.prioritize"),
        "maui.delay_pct": share("maui.delay"),
        "maui.dfs_pct": share("maui.dfs"),
        "maui.dyn_handle_s": sched.get("dyn_handle_seconds", 0.0),
        "maui.dyn_granted": sched.get("dyn_granted", 0),
        "maui.dyn_rejected": sched.get("dyn_rejected", 0),
        "maui.jobs_started": sched.get("jobs_started", 0),
        "maui.jobs_backfilled": sched.get("jobs_backfilled", 0),
        "maui.reservations_created": sched.get("reservations_created", 0),
        "cluster.profile_builds": sched.get("profile_builds", 0),
        "cluster.profile_cache_hits": sched.get("profile_cache_hits", 0),
        "cluster.profile_advances": sched.get("profile_advances", 0),
        "cluster.profile_advance_fallbacks": sched.get("profile_advance_fallbacks", 0),
        "cluster.profile_hit_ratio": ratio(
            profile_hits, profile_hits + sched.get("profile_builds", 0)
        ),
        "cluster.profile_update_pct": share("cluster.profile_update"),
        "cluster.earliest_fit_pct": share("cluster.earliest_fit"),
        "cluster.earliest_fit_calls": calls("cluster.earliest_fit"),
        "cluster.fits_at_pct": share("cluster.fits_at"),
        "cluster.fits_at_calls": calls("cluster.fits_at"),
        "cluster.find_allocation_pct": share("cluster.find_allocation"),
        "cluster.find_allocation_calls": calls("cluster.find_allocation"),
        "cluster.claim_release_pct": share("cluster.claim_release"),
        "obs.fold_pct": share("obs.fold"),
        "obs.fold_calls": calls("obs.fold"),
        "obs.windows_pct": share("obs.windows", "obs.setup"),
        "obs.ledger_pct": share("obs.ledger", "obs.subscriber"),
        "obs.ledger_decisions": facts.get("ledger_decisions", 0),
        "obs.fairness_pct": share("obs.fairness"),
        "obs.slo_pct": share("obs.slo"),
        "obs.sampler_pct": share("obs.sampler", "obs.dispatch"),
        "obs.trace_events": facts.get("trace_events", 0),
        "obs.export_pct": share("obs.export"),
        "obs.export_bytes": facts.get("export_bytes", 0),
        "metrics.collect_pct": share("metrics.collect"),
        "apps.callback_pct": share("apps.dispatch"),
        "apps.callbacks": calls("apps.dispatch"),
        "service.commands": service.get("commands", 0),
        "service.cycles": service.get("cycles", 0),
        "service.advance_total_pct": 100.0 * total_s("service.advance") / wall,
        "service.self_pct": service_self,
        "service.events_per_cycle": ratio(
            service.get("events_processed", 0), service.get("cycles", 0)
        ),
        "service.admission_rejected": service.get("admission_rejected", 0),
        "service.stalled_jobs": facts.get("stalled_jobs", 0),
        "service.cmd_per_s": ratio(untraced.get("commands", 0), untraced["wall_s"]),
        "paper.table2_util_err_pp": table2.get("util_err_pp", 0.0),
        "paper.table2_satisfied_err": table2.get("satisfied_err", 0.0),
        "trace.coverage": 1.0 - uncovered / 100.0,
        "trace.overhead_pct": 100.0 * (wall - untraced["wall_s"]) / untraced["wall_s"],
        "trace.spans": traced["span_count"],
        "trace.unresolved": len(traced["unresolved"]),
    }
    if set(values) != {row[0] for row in PER_LAYER}:
        raise RuntimeError("layer_metrics and PER_LAYER name different metrics")
    return values
