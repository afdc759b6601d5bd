"""Observability readers: live-run views of one Dyn-HP run, or recorded dumps.

``trace``, ``timeline``, ``metrics``, ``ledger``, ``why``, ``fairness`` and
``slo`` run the Dyn-HP configuration once with telemetry enabled (runs
are shared between commands of one process); ``trace``, ``ledger``,
``why``, ``metrics`` and ``perf-report`` render a recorded dump instead
when given one.
"""

from __future__ import annotations

from repro.cli.common import Commands, load_input, positive_float


def _dyn_hp(args, **telemetry):
    """The Dyn-HP run of ``--seed``, shared by every command of the process."""
    from repro.experiments.runner import run_esp_configuration_cached

    return run_esp_configuration_cached(
        "Dyn-HP",
        seed=args.seed,
        trace_maxlen=args.trace_maxlen,
        sample_interval=args.sample_interval,
        **telemetry,
    )


#: default objectives for the ``slo`` subcommand — tuned so a stock
#: Dyn-HP run demonstrates both verdicts: the tail-wait and fairness
#: objectives breach under the ESP burst, the mean-wait one holds
_DEFAULT_SLO = (
    "p99_wait < 100m",
    "mean_wait < 2h",
    "jain >= 0.6",
    "share_error < 0.15",
)


def _fairness_dyn_hp(args, slo: tuple[str, ...] | None = None):
    """Dyn-HP with the fairness observatory (+ SLO engine + ledger)."""
    return _dyn_hp(
        args,
        decision_ledger=slo is not None,
        windows=600.0,
        fairness=True,
        slo=slo,
    )


def _read_windows_file(path: str):
    from repro.obs.windows import read_windows_jsonl

    with open(path) as fp:
        return read_windows_jsonl(fp)


def _read_phases_file(path: str):
    from repro.obs.perf import read_phases_jsonl

    with open(path) as fp:
        return read_phases_jsonl(fp)


def _load_ledger(args):
    """The ledger named by --ledger-file, or a live run's; with its source."""
    if args.ledger_file:
        from repro.obs.ledger import load_ledger_jsonl

        ledger = load_input(args.ledger_file, load_ledger_jsonl, "ledger dump")
        return ledger, f"ledger dump {args.ledger_file}"
    result = _dyn_hp(args, decision_ledger=True)
    return result.telemetry.ledger, f"Dyn-HP ESP run (seed {args.seed})"


def _cmd_trace(args) -> str:
    """The newest events of the telemetry trace.

    With --trace-file, of a recorded .trace.jsonl dump instead of a run.
    """
    from repro.obs.console import render_event_tail

    if args.trace_file:
        from repro.obs.exporters import read_jsonl

        trace = load_input(args.trace_file, read_jsonl, "trace dump")
        return (
            f"trace dump {args.trace_file} — last {args.tail} of "
            f"{len(trace)} events:\n" + render_event_tail(trace, n=args.tail)
        )
    result = _dyn_hp(args)
    return (
        f"Dyn-HP ESP run (seed {args.seed}) — last {args.tail} trace events:\n"
        + render_event_tail(result.trace, n=args.tail)
    )


def _cmd_timeline(args) -> str:
    """Utilization and queue-depth sparklines over the sampled time series."""
    from repro.obs.console import render_series_sparkline

    result = _dyn_hp(args)
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
    """The metrics registry (Prometheus text), DFS ledger and shares.

    With --windows, whole-run percentile rows and the per-window table of a
    recorded .windows.jsonl dump instead of a run.  Wall-clock timings are
    perf-report's.
    """
    from repro.obs.console import render_window_percentiles, render_window_table

    if args.windows:
        dump = load_input(args.windows, _read_windows_file, "windows dump")
        return "\n".join(
            [
                f"windowed metrics dump {args.windows}:",
                render_window_percentiles(dump["totals"]),
                "",
                render_window_table(dump["windows"]),
            ]
        )
    from repro.obs import to_prometheus_text
    from repro.obs.console import render_fairness_table, render_ledger_table

    telemetry = _fairness_dyn_hp(args).telemetry
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
        ]
    )


def _cmd_ledger(args) -> str:
    """The causal decision ledger: per-kind summary and newest decisions.

    With --ledger-file, of a recorded .ledger.jsonl dump instead of a run.
    """
    from repro.obs.console import render_decision_summary, render_decision_tail

    ledger, source = _load_ledger(args)
    return "\n".join(
        [
            f"{source} — causal decision ledger:",
            render_decision_summary(ledger),
            "",
            f"last {args.tail} decisions:",
            render_decision_tail(ledger, n=args.tail),
        ]
    )


def _cmd_why(args) -> str:
    """Why one job waited: attributed wait and its causal decision chain.

    --job names the job (default: the job dynamic grants delayed the most);
    with --ledger-file the chain comes from a recorded dump.
    """
    from repro.obs.console import render_attribution, render_causal_chain

    ledger, source = _load_ledger(args)
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


def _cmd_fairness(args) -> str:
    """Per-account shares against fair-share targets, with Jain's index.

    Plus per-account wait/slowdown/stretch distributions with exact
    percentiles from the windowed aggregates.
    """
    from repro.obs.console import render_fairness_table, render_group_table

    telemetry = _fairness_dyn_hp(args).telemetry
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
    """SLO verdicts, the newest breaches, and why the first wait breach happened.

    Objectives are evaluated as each window closes; the first breach
    anchored on a job is explained through the causal decision ledger.
    """
    from repro.obs.console import (
        render_breach_tail,
        render_causal_chain,
        render_slo_summary,
    )

    objectives = tuple(args.slo) if args.slo else _DEFAULT_SLO
    telemetry = _fairness_dyn_hp(args, objectives).telemetry
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


def _cmd_perf_report(args) -> str:
    """Where scheduler iterations spend their wall clock, and windowed aggregates.

    Given --phases/--windows dumps (from table2 --telemetry-out DIR
    --profile) it reports offline; otherwise it runs Dyn-HP once with the
    phase profiler on.
    """
    from repro.obs.console import (
        render_phase_tree,
        render_window_percentiles,
        render_window_table,
    )

    sections: list[str] = []
    if args.phases or args.windows:
        if args.phases:
            from repro.obs.perf import aggregate_phase_records, stats_tree

            records = load_input(args.phases, _read_phases_file, "phases dump")
            sections.append(
                f"phase breakdown ({len(records)} records from {args.phases}):"
            )
            sections.append(render_phase_tree(stats_tree(aggregate_phase_records(records))))
        if args.windows:
            dump = load_input(args.windows, _read_windows_file, "windows dump")
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
    from repro.experiments.runner import run_esp_configuration_cached

    telemetry = run_esp_configuration_cached(
        "Dyn-HP", seed=args.seed, profiling=True, windows=args.window_width
    ).telemetry
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


def register(commands: Commands) -> None:
    live = commands.live

    def tail(parser, what: str) -> None:
        parser.add_argument(
            "--tail", type=int, default=20, help=f"{what} shown (default 20)"
        )

    def ledger_file(parser) -> None:
        parser.add_argument(
            "--ledger-file", default=None, metavar="FILE",
            help="read a recorded .ledger.jsonl dump instead of simulating",
        )

    def windows(parser) -> None:
        parser.add_argument(
            "--windows", default=None, metavar="FILE",
            help="windowed-aggregates JSONL dump to render",
        )

    trace = commands.add("trace", _cmd_trace, live)
    tail(trace, "events")
    trace.add_argument(
        "--trace-file", default=None, metavar="FILE",
        help="render a recorded .trace.jsonl dump instead of simulating",
    )
    commands.add("timeline", _cmd_timeline, live)
    windows(commands.add("metrics", _cmd_metrics, live))
    ledger = commands.add("ledger", _cmd_ledger, live)
    tail(ledger, "decisions")
    ledger_file(ledger)
    why = commands.add("why", _cmd_why, live)
    why.add_argument(
        "--job", default=None, metavar="ID",
        help="job to explain (default: the most dyn-delayed job)",
    )
    ledger_file(why)
    commands.add("fairness", _cmd_fairness, live)
    slo = commands.add("slo", _cmd_slo, live)
    tail(slo, "breaches")
    slo.add_argument(
        "--slo", action="append", default=None, metavar="OBJ",
        help="declare an SLO objective like 'p99_wait < 4h' (repeatable; "
        "default: a stock set that shows both verdicts)",
    )
    perf = commands.add("perf-report", _cmd_perf_report, commands.seed)
    perf.add_argument(
        "--window-width", type=positive_float, default=600.0, metavar="S",
        help="tumbling window width in sim seconds (default 600)",
    )
    perf.add_argument(
        "--phases", default=None, metavar="FILE",
        help="phase-trace JSONL dump to analyse offline",
    )
    windows(perf)
