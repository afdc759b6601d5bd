"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    repro-batchsim table1
    repro-batchsim table2 [--seed N] [--telemetry-out DIR] [--ledger] [-j N]
    repro-batchsim fig7 | fig8 | fig9 | fig10 | fig11 | fig12
    repro-batchsim sweep | campaign [-j N]       # multi-seed campaigns
    repro-batchsim trace | timeline | metrics   # live telemetry views
    repro-batchsim trace --trace-file FILE       # render a recorded dump
    repro-batchsim ledger [--ledger-file FILE]   # decision-ledger tail
    repro-batchsim why [--job ID] [--ledger-file FILE]
    repro-batchsim serve [--backend sim|--replay-from FILE] [--max-open N]
    repro-batchsim fairness                      # per-account share tables
    repro-batchsim slo [--slo OBJ ...]           # SLO verdicts + breach->why
    repro-batchsim resilience [--mtbf S] [--mttr S] [--fault-seed N]
                              [--delivery-failure-rate P] [--out DIR] [-j N]
    repro-batchsim perf-report [--phases FILE] [--windows FILE]
    repro-batchsim bench-trend --baseline FILE --current FILE
                               [--tolerance F] [--fail-on-regress]
    repro-batchsim all

``resilience`` (and ``table2 --faults``) reruns the Table II
configurations under seeded fault injection (``repro.faults``): node
failures drawn per-node from an exponential/Weibull MTBF with
exponential repairs, plus transient grant-delivery drops retried with
exponential backoff.  ``--out DIR`` writes canonical ``resilience.json``
(byte-identical per seed; the CI determinism check ``cmp``'s two of
them).  See docs/RESILIENCE.md.

``-j/--jobs N`` fans multi-run campaigns (``sweep``, ``table2``,
``campaign``) out over N worker processes (0 = every CPU); results are
bit-identical to serial runs.

``trace``/``timeline``/``metrics`` run the Dyn-HP configuration once with
telemetry enabled and render, respectively: the tail of the event trace, a
utilization sparkline over the sampled time series, and the full metrics
registry (Prometheus text) plus the per-user DFS delay ledger.

``ledger`` and ``why`` run the same Dyn-HP configuration with the causal
decision ledger enabled: ``ledger`` prints the verdict summary and tail,
``why`` explains one job (``--job``, default: the job dynamic grants
delayed the most) — its wait decomposed into attributed components plus
every decision that causally touched it.

``fairness`` runs Dyn-HP with the fairness observatory: per-account
share-usage vs fair-share targets (Jain's index over normalized shares)
plus per-account wait/slowdown/stretch distributions from the windowed
P² sketches.  ``slo`` additionally evaluates declarative objectives
(``--slo "p99_wait < 2h"``, repeatable; sensible defaults otherwise) as
each window closes and explains the first wait breach through the causal
decision ledger.  ``table2 --telemetry-out DIR --slo OBJ`` dumps
``<config>.fairness.jsonl`` and ``<config>.slo.jsonl`` — byte-identical
per seed, serial or ``-j N`` (a CI golden check ``cmp``'s them).

``serve`` demos the always-on scheduler service (``repro.service``): it
starts the asyncio service on the chosen backend, drives a workload
through the submit/query API (a compact dynamic ESP workload on ``sim``,
a recorded trace with ``--replay-from``), optionally throttles admissions
per account (``--max-open``), and reports a clean shutdown.  ``table2
--via-service`` reruns Table II through the service — by the service's
bit-identity contract the results and ``--telemetry-out`` dumps match the
direct path byte for byte (a CI golden check ``cmp``'s them).

Subcommands that read artifact files (``trace --trace-file``, ``ledger``/
``why --ledger-file``, ``perf-report --phases/--windows``, ``metrics
--windows``, ``bench-trend``, ``serve --replay-from``) exit 2 with a
one-line error naming the file when it is missing or malformed.

``perf-report`` renders the performance observatory: the phase-profiler
tree (where scheduler iterations spend their wall-clock) and the windowed
streaming aggregates.  Given ``--phases``/``--windows`` JSONL dumps (from
``table2 --telemetry-out DIR --profile``) it reports offline; otherwise it
runs Dyn-HP once with profiling enabled.  ``bench-trend`` diffs a
``BENCH_*.json`` snapshot against a committed baseline within a relative
tolerance band (the CI perf-regression gate).  ``metrics --windows FILE``
additionally prints whole-run percentile rows from a windows dump.
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import lru_cache

__all__ = ["main", "CliInputError"]


class CliInputError(Exception):
    """A user-supplied input file is missing or unparsable.

    Raised by the subcommands that read JSONL/JSON artifacts; ``main``
    catches it and exits 2 with a one-line error naming the file instead
    of dumping a traceback.
    """


def _load_input(path: str, loader, what: str):
    """Run ``loader(path)`` and normalise failures into CliInputError."""
    try:
        return loader(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise CliInputError(f"cannot read {what} {path!r}: {reason}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        # json.JSONDecodeError is a ValueError; schema/shape errors land
        # here too (missing keys, wrong field types, bad enum values)
        raise CliInputError(f"malformed {what} {path!r}: {exc}") from exc


def _cmd_table1(args) -> str:
    from repro.experiments.table1 import render_table1

    return render_table1(total_cores=args.cores)


def _fault_model_from_args(args):
    from repro.experiments.resilience import default_fault_model

    return default_fault_model(
        fault_seed=args.fault_seed,
        mtbf=args.mtbf,
        mttr=args.mttr,
        distribution=args.fault_dist,
        burst_probability=args.burst_probability,
        delivery_failure_rate=args.delivery_failure_rate,
    )


def _cmd_resilience(args) -> str:
    from repro.experiments.resilience import (
        export_resilience_json,
        render_resilience,
        run_resilience,
    )

    model = _fault_model_from_args(args)
    rows = run_resilience(seed=args.seed, fault_model=model, workers=args.jobs)
    out = render_resilience(rows)
    if args.out:
        path = export_resilience_json(
            rows, args.out, fault_model=model, seed=args.seed
        )
        out += f"\n\nresilience rows written to {path}"
    return out


def _cmd_table2(args) -> str:
    from repro.experiments.table2 import render_table2

    if getattr(args, "faults", False):
        from repro.experiments.resilience import render_resilience, run_resilience

        rows = run_resilience(
            seed=args.seed,
            fault_model=_fault_model_from_args(args),
            workers=args.jobs,
        )
        return render_resilience(
            rows, title="Table II configurations under failure injection"
        )
    slo = getattr(args, "slo", None)
    if getattr(args, "telemetry_out", None) or getattr(args, "profile", False) or slo:
        from repro.experiments.table2 import run_table2_instrumented

        results = run_table2_instrumented(
            seed=args.seed,
            out_dir=args.telemetry_out,
            decision_ledger=args.ledger,
            profile=args.profile,
            window_width=args.window_width,
            shards=getattr(args, "shards", None),
            slo=tuple(slo) if slo else None,
            workers=args.jobs,
            via_service=getattr(args, "via_service", False),
        )
        if args.telemetry_out is None:
            return render_table2(results)
        suffixes = ".trace.jsonl and .metrics.prom" + (
            " and .ledger.jsonl" if args.ledger else ""
        ) + (" and .phases.jsonl" if args.profile else "") + (
            " and .windows.jsonl" if args.profile or slo else ""
        ) + (" and .fairness.jsonl and .slo.jsonl" if slo else "")
        return (
            render_table2(results)
            + f"\n\ntelemetry written to {args.telemetry_out}/<config>{suffixes}"
        )
    if getattr(args, "via_service", False):
        from repro.experiments.configs import all_configurations
        from repro.experiments.runner import run_esp_configuration_via_service

        return render_table2(
            [
                run_esp_configuration_via_service(cfg, seed=args.seed)
                for cfg in all_configurations()
            ]
        )
    from repro.experiments.table2 import run_table2

    return render_table2(
        run_table2(
            seed=args.seed, workers=args.jobs, shards=getattr(args, "shards", None)
        )
    )


def _cmd_fig7(args) -> str:
    from repro.experiments.fig7 import render_fig7

    return render_fig7()


def _cmd_fig8(args) -> str:
    from repro.experiments.fig8 import render_fig8

    return render_fig8(seed=args.seed)


def _cmd_fig9(args) -> str:
    from repro.experiments.fig9 import render_fig9

    return render_fig9(seed=args.seed)


def _cmd_fig10(args) -> str:
    from repro.experiments.fig10 import render_fig10

    return render_fig10(seed=args.seed)


def _cmd_fig11(args) -> str:
    from repro.experiments.fig11 import render_fig11

    return render_fig11(seed=args.seed)


def _cmd_fig12(args) -> str:
    from repro.experiments.fig12 import render_fig12

    return render_fig12()


def _cmd_baselines(args) -> str:
    from repro.baselines import run_guaranteeing_esp, run_slurm_esp
    from repro.experiments.runner import run_esp_configuration_cached
    from repro.metrics.report import render_table

    static = run_esp_configuration_cached("Static", seed=args.seed).metrics
    dyn_hp = run_esp_configuration_cached("Dyn-HP", seed=args.seed).metrics
    slurm = run_slurm_esp(seed=args.seed)
    guaranteed = run_guaranteeing_esp(seed=args.seed)
    rows = [
        ["Static", f"{static.workload_time_minutes:.1f}", 0, f"{static.mean_wait:.0f}", ""],
        ["Dyn-HP (paper)", f"{dyn_hp.workload_time_minutes:.1f}",
         dyn_hp.satisfied_dyn_jobs, f"{dyn_hp.mean_wait:.0f}", ""],
        ["SLURM-style", f"{slurm.workload_time_minutes:.1f}",
         slurm.satisfied_dyn_jobs, f"{slurm.mean_wait:.0f}",
         "helper jobs in static queue"],
        ["Guaranteeing", f"{guaranteed.metrics.workload_time_minutes:.1f}", 69,
         f"{guaranteed.metrics.mean_wait:.0f}",
         f"{guaranteed.wasted_reserved_core_seconds / 3600:.0f} core-h reserved idle"],
    ]
    return render_table(
        ["Approach", "Time[min]", "Satisfied", "Mean wait[s]", "Notes"],
        rows,
        title="Baselines — approaches to evolving-job support (Sections II-B, V)",
    )


def _cmd_export(args) -> str:
    from repro.experiments.export import export_json

    return export_json(seed=args.seed)


def _cmd_sweep(args) -> str:
    from repro.experiments.sweep import render_sweep, run_seed_sweep

    return render_sweep(run_seed_sweep(workers=args.jobs))


def _cmd_campaign(args) -> str:
    from repro.metrics.report import render_table
    from repro.workloads.random_workload import run_random_campaign

    rows = run_random_campaign(args.num_jobs, workers=args.jobs)
    body = [
        [
            row["seed"],
            row["completed"],
            row["satisfied"],
            f"{row['util_pct']:.2f}",
            f"{row['mean_wait']:.0f}",
            row["trace_events"],
            row["trace_dropped"],
        ]
        for row in rows
    ]
    return render_table(
        ["Seed", "Completed", "Satisfied", "Util[%]", "Mean wait[s]",
         "Trace events", "Dropped"],
        body,
        title=f"Random mixed-workload campaign ({args.num_jobs} jobs per seed)",
    )


def _cmd_gantt(args) -> str:
    from repro.maui.config import MauiConfig
    from repro.metrics.gantt import render_gantt
    from repro.system import BatchSystem
    from repro.workloads.esp import make_esp_workload

    telemetry = None
    if args.ledger:
        from repro.obs import Telemetry

        telemetry = Telemetry(decision_ledger=True)
    system = BatchSystem(
        15, 8, MauiConfig(reservation_depth=5, reservation_delay_depth=5),
        telemetry=telemetry,
    )
    make_esp_workload(120, dynamic=True, seed=args.seed).submit_to(system)
    system.run(max_events=5_000_000)
    ledger = telemetry.ledger if telemetry is not None else None
    return (
        "Dynamic ESP schedule (Dyn-HP), one row per node:\n"
        + render_gantt(system.trace, system.cluster, width=100, ledger=ledger)
    )


@lru_cache(maxsize=4)
def _instrumented_dyn_hp(
    seed: int,
    sample_interval: float,
    trace_maxlen: int | None,
    with_ledger: bool = False,
):
    """One telemetry-enabled Dyn-HP run, shared by trace/timeline/metrics."""
    from repro.experiments.configs import all_configurations
    from repro.experiments.runner import run_esp_configuration
    from repro.obs import Telemetry

    configuration = next(c for c in all_configurations() if c.name == "Dyn-HP")
    telemetry = Telemetry(
        sample_interval=sample_interval, decision_ledger=with_ledger
    )
    return run_esp_configuration(
        configuration, seed=seed, telemetry=telemetry, trace_maxlen=trace_maxlen
    )


def _cmd_trace(args) -> str:
    from repro.obs.console import render_event_tail

    if args.trace_file:
        # offline mode: render a recorded trace dump instead of simulating
        from repro.obs.exporters import read_jsonl

        trace = _load_input(args.trace_file, read_jsonl, "trace dump")
        return (
            f"trace dump {args.trace_file} — last {args.tail} of "
            f"{len(trace)} events:\n" + render_event_tail(trace, n=args.tail)
        )
    result = _instrumented_dyn_hp(args.seed, args.sample_interval, args.trace_maxlen)
    return (
        f"Dyn-HP ESP run (seed {args.seed}) — last {args.tail} trace events:\n"
        + render_event_tail(result.trace, n=args.tail)
    )


def _cmd_timeline(args) -> str:
    from repro.obs.console import render_series_sparkline

    result = _instrumented_dyn_hp(args.seed, args.sample_interval, args.trace_maxlen)
    series = result.telemetry.series
    lines = [
        f"Dyn-HP ESP run (seed {args.seed}) — sampled every "
        f"{args.sample_interval:.0f}s of sim time:"
    ]
    for name, lo, hi in (
        ("utilization", 0.0, 1.0),
        ("queue_depth", 0.0, None),
        ("dyn_queue_depth", 0.0, None),
        ("running_jobs", 0.0, None),
    ):
        lines.append(render_series_sparkline(name, series.get(name, []), lo=lo, hi=hi))
    return "\n".join(lines)


def _cmd_metrics(args) -> str:
    from repro.obs import to_prometheus_text
    from repro.obs.console import render_ledger_table

    if args.windows:
        # offline mode: percentile rows from a windowed-aggregates dump
        from repro.obs.console import render_window_percentiles, render_window_table

        dump = _load_input(args.windows, _read_windows_file, "windows dump")
        return "\n".join(
            [
                f"windowed metrics dump {args.windows}:",
                render_window_percentiles(dump["totals"]),
                "",
                render_window_table(dump["windows"]),
            ]
        )
    from repro.obs.console import render_fairness_table

    result = _fairness_dyn_hp(args.seed, args.sample_interval, args.trace_maxlen)
    telemetry = result.telemetry
    ledger = {}
    for instrument in telemetry.registry.collect():
        if instrument.name == "repro_dfs_ledger_delay_seconds":
            labels = dict(instrument.labels)
            ledger[(labels["kind"], labels["principal"])] = instrument.value
    return "\n".join(
        [
            f"Dyn-HP ESP run (seed {args.seed}) — metrics registry:",
            to_prometheus_text(telemetry.registry).rstrip(),
            "",
            render_ledger_table(ledger),
            "",
            render_fairness_table(telemetry.fairness.account_rows()),
            "",
            telemetry.tracer.render_summary(),
        ]
    )


def _read_windows_file(path: str):
    from repro.obs.windows import read_windows_jsonl

    with open(path) as fp:
        return read_windows_jsonl(fp)


def _read_phases_file(path: str):
    from repro.obs.perf import read_phases_jsonl

    with open(path) as fp:
        return read_phases_jsonl(fp)


def _cmd_perf_report(args) -> str:
    from repro.obs.console import (
        render_phase_tree,
        render_window_percentiles,
        render_window_table,
    )

    sections: list[str] = []
    if args.phases or args.windows:
        if args.phases:
            from repro.obs.perf import aggregate_phase_records, stats_tree

            records = _load_input(args.phases, _read_phases_file, "phases dump")
            sections.append(
                f"phase breakdown ({len(records)} records from {args.phases}):"
            )
            sections.append(render_phase_tree(stats_tree(aggregate_phase_records(records))))
        if args.windows:
            dump = _load_input(args.windows, _read_windows_file, "windows dump")
            if sections:
                sections.append("")
            sections.append(render_window_percentiles(dump["totals"]))
            sections.append("")
            sections.append(
                render_window_table(
                    dump["windows"], title=f"windowed aggregates ({args.windows}):"
                )
            )
        return "\n".join(sections)
    # live mode: one profiled Dyn-HP run
    from repro.experiments.configs import all_configurations
    from repro.experiments.runner import run_esp_configuration
    from repro.obs import Telemetry

    configuration = next(c for c in all_configurations() if c.name == "Dyn-HP")
    telemetry = Telemetry(profiling=True, windows=args.window_width)
    run_esp_configuration(configuration, seed=args.seed, telemetry=telemetry)
    prof = telemetry.profiler
    windows = telemetry.windows
    coverage = prof.child_coverage(("engine_dispatch", "sched_iteration"))
    return "\n".join(
        [
            f"Dyn-HP ESP run (seed {args.seed}) — phase profile "
            f"({prof.total_phase_count()} phases recorded):",
            render_phase_tree(prof.tree()),
            f"  direct children cover {coverage:.1%} of sched_iteration wall time",
            "",
            render_window_percentiles(windows.totals_dict()),
            "",
            render_window_table(
                [f.to_dict(windows.total_cores) for f in windows.frames],
                title=f"windowed aggregates ({args.window_width:.0f}s tumbling):",
            ),
        ]
    )


def _cmd_bench_trend(args) -> str:
    from repro.obs.benchtrend import (
        diff_snapshots,
        load_snapshot,
        regressions,
        render_trend,
    )

    if not args.baseline or not args.current:
        raise SystemExit("bench-trend requires --baseline FILE and --current FILE")
    rows = diff_snapshots(
        _load_input(args.baseline, load_snapshot, "bench snapshot"),
        _load_input(args.current, load_snapshot, "bench snapshot"),
        tolerance=args.tolerance,
    )
    out = (
        f"bench trend: {args.current} vs baseline {args.baseline}\n"
        + render_trend(rows, tolerance=args.tolerance)
    )
    if args.fail_on_regress and regressions(rows):
        print(out)
        raise SystemExit(1)
    return out


def _cmd_ledger(args) -> str:
    from repro.obs.console import render_decision_summary, render_decision_tail

    if args.ledger_file:
        # offline mode: summarise a recorded ledger dump
        from repro.obs.ledger import load_ledger_jsonl

        ledger = _load_input(args.ledger_file, load_ledger_jsonl, "ledger dump")
        header = f"ledger dump {args.ledger_file} — causal decision ledger:"
    else:
        result = _instrumented_dyn_hp(
            args.seed, args.sample_interval, args.trace_maxlen, True
        )
        ledger = result.telemetry.ledger
        header = f"Dyn-HP ESP run (seed {args.seed}) — causal decision ledger:"
    return "\n".join(
        [
            header,
            render_decision_summary(ledger),
            "",
            f"last {args.tail} decisions:",
            render_decision_tail(ledger, n=args.tail),
        ]
    )


def _cmd_why(args) -> str:
    from repro.obs.console import render_attribution, render_causal_chain

    if args.ledger_file:
        from repro.obs.ledger import load_ledger_jsonl

        ledger = _load_input(args.ledger_file, load_ledger_jsonl, "ledger dump")
        source = f"ledger dump {args.ledger_file}"
    else:
        result = _instrumented_dyn_hp(
            args.seed, args.sample_interval, args.trace_maxlen, True
        )
        ledger = result.telemetry.ledger
        source = f"Dyn-HP ESP run (seed {args.seed})"
    job_id = args.job or ledger.most_delayed_job()
    if job_id is None:
        return "no jobs recorded"
    chain = ledger.causal_chain(job_id)
    header = (
        f"{source} — why {job_id}"
        + ("" if args.job else " (most dyn-delayed job)")
        + ":"
    )
    attribution = ledger.attribution(job_id)
    sections = [header]
    if attribution is not None:
        sections.append(render_attribution(attribution))
    else:
        # a dump carries decisions, not wait timelines (those follow the
        # lifecycle trace) — the causal chain below still explains the job
        sections.append(
            "  (wait attribution unavailable offline — timelines live in "
            "the trace, not the ledger dump)"
        )
    sections.extend(
        [
            "",
            f"causal chain ({len(chain)} decisions):",
            render_causal_chain(chain),
        ]
    )
    return "\n".join(sections)


#: default objectives for the ``slo`` subcommand — tuned so a stock
#: Dyn-HP run demonstrates both verdicts: the tail-wait and fairness
#: objectives breach under the ESP burst, the mean-wait one holds
_DEFAULT_SLO = (
    "p99_wait < 100m",
    "mean_wait < 2h",
    "jain >= 0.6",
    "share_error < 0.15",
)


@lru_cache(maxsize=2)
def _fairness_dyn_hp(
    seed: int,
    sample_interval: float,
    trace_maxlen: int | None,
    slo: tuple[str, ...] | None = None,
):
    """Dyn-HP with the fairness observatory (+ SLO engine + ledger)."""
    from repro.experiments.configs import all_configurations
    from repro.experiments.runner import run_esp_configuration
    from repro.obs import Telemetry

    configuration = next(c for c in all_configurations() if c.name == "Dyn-HP")
    telemetry = Telemetry(
        sample_interval=sample_interval,
        decision_ledger=slo is not None,
        windows=600.0,
        fairness=True,
        slo=list(slo) if slo else None,
    )
    return run_esp_configuration(
        configuration, seed=seed, telemetry=telemetry, trace_maxlen=trace_maxlen
    )


def _cmd_fairness(args) -> str:
    from repro.obs.console import render_fairness_table, render_group_table

    result = _fairness_dyn_hp(args.seed, args.sample_interval, args.trace_maxlen)
    telemetry = result.telemetry
    fair = telemetry.fairness
    summary = fair.summary()
    return "\n".join(
        [
            f"Dyn-HP ESP run (seed {args.seed}) — fairness observatory:",
            f"  accounts={summary['accounts']} samples={summary['samples']} "
            f"(every {fair.sample_interval:.0f}s, {fair.decimations} decimations)",
            f"  jain_index={summary['jain']:.4f} "
            f"max_share_error={summary['max_share_error']:.4f}",
            "",
            render_fairness_table(fair.account_rows()),
            "",
            render_group_table(telemetry.windows.group_totals()),
        ]
    )


def _cmd_slo(args) -> str:
    from repro.obs.console import (
        render_breach_tail,
        render_causal_chain,
        render_slo_summary,
    )

    objectives = tuple(args.slo) if args.slo else _DEFAULT_SLO
    result = _fairness_dyn_hp(
        args.seed, args.sample_interval, args.trace_maxlen, objectives
    )
    telemetry = result.telemetry
    engine = telemetry.slo
    sections = [
        f"Dyn-HP ESP run (seed {args.seed}) — SLO engine "
        f"({len(engine.breaches)} breaches over "
        f"{len(telemetry.windows.closed)} closed windows):",
        render_slo_summary(engine.summary()),
        "",
        f"last {args.tail} breaches:",
        render_breach_tail(engine.breaches, n=args.tail),
    ]
    # breach -> why: explain the first wait breach through the causal
    # chain of the window's worst-wait job
    anchored = next((b for b in engine.breaches if b["job_id"]), None)
    if anchored is not None and telemetry.ledger is not None:
        chain = telemetry.ledger.causal_chain(anchored["job_id"])
        sections.extend(
            [
                "",
                f"why {anchored['job_id']} (worst wait in window "
                f"{anchored['window']}, breached {anchored['objective']!r}):",
                render_causal_chain(chain[-args.tail :]),
            ]
        )
    return "\n".join(sections)


def _cmd_serve(args) -> str:
    """Demo the always-on scheduler service end to end.

    Starts a :class:`~repro.service.SchedulerService` on the chosen
    backend, drives a workload through the public API — a compact dynamic
    ESP workload on ``sim``, a recorded trace on ``--replay-from`` — and
    shuts down cleanly.  The CI service-smoke job runs this and greps for
    the final ``service shutdown: clean`` line.
    """
    import asyncio

    from repro.maui.config import MauiConfig
    from repro.service import AdmissionPolicy, SchedulerService, make_backend
    from repro.workloads.esp import make_esp_workload

    backend_kind = "replay" if args.replay_from else args.backend
    backend = make_backend(
        backend_kind, config=MauiConfig(), trace_maxlen=args.trace_maxlen
    )
    admission = None
    if args.max_open is not None:
        admission = AdmissionPolicy(max_open_per_account=args.max_open)

    if args.replay_from:
        from repro.obs.exporters import read_jsonl

        recorded = _load_input(args.replay_from, read_jsonl, "trace dump")
        specs = backend.ingest(recorded)
        source = f"replayed {len(specs)} submissions from {args.replay_from}"
        workload = None
    else:
        workload = make_esp_workload(
            total_cores=120, dynamic=True, seed=args.seed
        )
        source = f"dynamic ESP workload, {len(workload)} jobs (seed {args.seed})"

    async def _drive() -> list[str]:
        lines: list[str] = []
        throttled = 0
        async with SchedulerService(backend, admission=admission) as service:
            if workload is not None:
                from repro.service import AdmissionError

                for spec in workload:
                    try:
                        await service.submit(spec)
                    except AdmissionError:
                        throttled += 1
            queued = await service.queue_info()
            processed = await service.drain()
            final = await service.queue_info()
            metrics = service.metrics()
            lines.append(f"scheduler service on backend {backend.name!r} — {source}")
            if workload is not None:
                lines.append(
                    f"  admitted {service.stats['submitted']} jobs"
                    + (f", throttled {throttled}" if throttled else "")
                    + f"; {queued.pending_events} events pending at drain start"
                )
            else:
                lines.append(
                    f"  {queued.pending_events} events pending at drain start"
                )
            lines.append(
                f"  drained {processed} engine events over "
                f"{service.stats['cycles']} batches (t={final.now:.0f}s)"
            )
            lines.append(
                f"  final queue: {final.queued} queued, {final.running} running, "
                f"{final.finished} finished of {final.total_jobs} total"
            )
            lines.append(
                f"  completed {metrics.completed_jobs} jobs, "
                f"utilization {100.0 * metrics.utilization:.2f}%"
            )
        lines.append("service shutdown: clean")
        return lines

    return "\n".join(asyncio.run(_drive()))


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "baselines": _cmd_baselines,
    "gantt": _cmd_gantt,
    "sweep": _cmd_sweep,
    "campaign": _cmd_campaign,
    "export": _cmd_export,
    "trace": _cmd_trace,
    "timeline": _cmd_timeline,
    "metrics": _cmd_metrics,
    "ledger": _cmd_ledger,
    "why": _cmd_why,
    "fairness": _cmd_fairness,
    "slo": _cmd_slo,
    "resilience": _cmd_resilience,
    "perf-report": _cmd_perf_report,
    "bench-trend": _cmd_bench_trend,
    "serve": _cmd_serve,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _jobs_count(text: str) -> int:
    """Worker-count validator: N >= 1, or 0 meaning "use every CPU"."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 1 (or 0 for all CPUs): {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-batchsim",
        description=(
            "Reproduce the tables and figures of 'A Batch System with Fair "
            "Scheduling for Evolving Applications' (ICPP 2014)."
        ),
    )
    parser.add_argument(
        "artifact",
        choices=[*_COMMANDS, "all"],
        help="which table/figure to regenerate ('all' prints everything)",
    )
    parser.add_argument(
        "--seed", type=int, default=2014, help="workload-order seed (default 2014)"
    )
    parser.add_argument(
        "--cores", type=int, default=120, help="machine size in cores (default 120)"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="component logging on stderr (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "--tail",
        type=int,
        default=20,
        help="events shown by the trace view (default 20)",
    )
    parser.add_argument(
        "--sample-interval",
        type=_positive_float,
        default=60.0,
        help="telemetry sampling period in sim seconds (default 60)",
    )
    parser.add_argument(
        "--trace-maxlen",
        type=_positive_int,
        default=None,
        help="bound the event trace to a ring of N events (default unbounded)",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="DIR",
        help="table2 only: dump per-config JSONL traces and Prometheus metrics",
    )
    parser.add_argument(
        "--ledger",
        action="store_true",
        help=(
            "table2/gantt: record the causal decision ledger "
            "(table2 --telemetry-out also dumps <config>.ledger.jsonl; "
            "gantt adds the per-grant attribution overlay)"
        ),
    )
    parser.add_argument(
        "--job",
        default=None,
        metavar="ID",
        help="why only: job to explain (default: the most dyn-delayed job)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help=(
            "worker processes for sweep/table2/campaign "
            "(0 = all CPUs; default: serial)"
        ),
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="table2: rerun the configurations under seeded fault injection",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "table2: override the scheduler shard count "
            "(N >= 1; default: config value)"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=2014,
        help="resilience/--faults: failure-trace seed (default 2014)",
    )
    parser.add_argument(
        "--mtbf",
        type=_positive_float,
        default=6000.0,
        help="resilience/--faults: per-node mean time between failures [s]",
    )
    parser.add_argument(
        "--mttr",
        type=_positive_float,
        default=900.0,
        help="resilience/--faults: mean time to repair [s]",
    )
    parser.add_argument(
        "--fault-dist",
        choices=["exponential", "weibull"],
        default="exponential",
        help="resilience/--faults: failure inter-arrival distribution",
    )
    parser.add_argument(
        "--burst-probability",
        type=float,
        default=0.0,
        help="resilience/--faults: chance a failure takes neighbours down too",
    )
    parser.add_argument(
        "--delivery-failure-rate",
        type=float,
        default=0.05,
        help="resilience/--faults: transient grant-delivery drop rate",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="resilience only: write machine-readable resilience.json to DIR",
    )
    parser.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="OBJ",
        help=(
            "table2/slo: declare an SLO objective like 'p99_wait < 4h' "
            "(repeatable; table2 --telemetry-out also dumps "
            "<config>.fairness.jsonl and <config>.slo.jsonl)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "table2: enable the phase profiler + windowed aggregates "
            "(--telemetry-out also dumps <config>.phases.jsonl and "
            "<config>.windows.jsonl)"
        ),
    )
    parser.add_argument(
        "--window-width",
        type=_positive_float,
        default=600.0,
        metavar="S",
        help="perf-report/table2 --profile: tumbling window width in sim "
        "seconds (default 600)",
    )
    parser.add_argument(
        "--phases",
        default=None,
        metavar="FILE",
        help="perf-report: phase-trace JSONL dump to analyse offline",
    )
    parser.add_argument(
        "--windows",
        default=None,
        metavar="FILE",
        help="perf-report/metrics: windowed-aggregates JSONL dump to render",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="bench-trend: committed baseline BENCH_*.json",
    )
    parser.add_argument(
        "--current",
        default=None,
        metavar="FILE",
        help="bench-trend: freshly generated BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=_positive_float,
        default=0.5,
        help="bench-trend: relative tolerance band (default 0.5)",
    )
    parser.add_argument(
        "--fail-on-regress",
        action="store_true",
        help="bench-trend: exit 1 when a directional metric regressed",
    )
    parser.add_argument(
        "--num-jobs",
        type=_positive_int,
        default=200,
        metavar="N",
        help="campaign only: jobs per random workload seed (default 200)",
    )
    parser.add_argument(
        "--via-service",
        action="store_true",
        help=(
            "table2: drive the runs through the always-on scheduler service "
            "on the simulator backend (results and --telemetry-out dumps are "
            "byte-identical to the direct path)"
        ),
    )
    parser.add_argument(
        "--trace-file",
        default=None,
        metavar="FILE",
        help="trace: render a recorded .trace.jsonl dump instead of simulating",
    )
    parser.add_argument(
        "--ledger-file",
        default=None,
        metavar="FILE",
        help="ledger/why: read a recorded .ledger.jsonl dump instead of simulating",
    )
    parser.add_argument(
        "--backend",
        choices=["sim", "replay"],
        default="sim",
        help="serve: scheduler-service backend (default sim)",
    )
    parser.add_argument(
        "--replay-from",
        default=None,
        metavar="FILE",
        help="serve: shadow-schedule a recorded .trace.jsonl through the "
        "replay backend",
    )
    parser.add_argument(
        "--max-open",
        type=_positive_int,
        default=None,
        metavar="N",
        help="serve: admission throttle — max open jobs per account",
    )
    return parser


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` logger tree.

    Library code only emits records; handlers are the application's call —
    this is the application.
    """
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    logger.addHandler(handler)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    if args.artifact == "all":
        # bench-trend needs explicit snapshot paths; everything else renders
        names = [n for n in _COMMANDS if n != "bench-trend"]
    else:
        names = [args.artifact]
    for i, name in enumerate(names):
        if i:
            print("\n" + "=" * 72 + "\n")
        try:
            print(_COMMANDS[name](args))
        except CliInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
