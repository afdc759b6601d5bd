"""The paper's artefacts (Tables I–II, Figs 7–12) and the campaigns."""

from __future__ import annotations

from repro.cli.common import Commands, positive_float, positive_int


def _cmd_table1(args) -> str:
    """Table I: the dynamic ESP job mix on a machine of --cores cores."""
    from repro.experiments.table1 import render_table1

    return render_table1(total_cores=args.cores)


def _cmd_table2(args) -> str:
    """Table II: Static vs Dyn-HP vs Dyn-500 vs Dyn-600.

    --telemetry-out DIR dumps <config>.trace.jsonl and <config>.metrics.prom
    per configuration; --ledger, --profile and --slo record the decision
    ledger, the phase profile with windowed aggregates, and the fairness
    observatory with SLO verdicts, and add their own dumps there.  The
    dumps are byte-identical per seed, serial or -j N (CI cmp's them).
    --via-service drives every run through the scheduler service: by the
    service's bit-identity contract results and dumps match the direct
    path byte for byte.
    """
    from repro.experiments.table2 import (
        render_table2,
        run_table2,
        run_table2_instrumented,
    )

    slo = tuple(args.slo) if args.slo else None
    if not (args.telemetry_out or args.profile or slo):
        return render_table2(
            run_table2(
                seed=args.seed,
                workers=args.jobs,
                shards=args.shards,
                via_service=args.via_service,
            )
        )
    results = run_table2_instrumented(
        seed=args.seed,
        out_dir=args.telemetry_out,
        decision_ledger=args.ledger,
        profile=args.profile,
        window_width=args.window_width,
        shards=args.shards,
        slo=slo,
        workers=args.jobs,
        via_service=args.via_service,
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


def _cmd_fig7(args) -> str:
    """Fig. 7: Quadflow execution times by adaptation phase."""
    from repro.experiments.fig7 import render_fig7

    return render_fig7()


def _cmd_fig8(args) -> str:
    """Fig. 8: job waits, Static vs Dyn-HP."""
    from repro.experiments.fig8 import render_fig8

    return render_fig8(seed=args.seed)


def _cmd_fig9(args) -> str:
    """Fig. 9: type-L job waits under every configuration."""
    from repro.experiments.fig9 import render_fig9

    return render_fig9(seed=args.seed)


def _cmd_fig10(args) -> str:
    """Fig. 10: job waits, Static vs Dyn-HP vs Dyn-500."""
    from repro.experiments.fig10 import render_fig10

    return render_fig10(seed=args.seed)


def _cmd_fig11(args) -> str:
    """Fig. 11: job waits, Static vs Dyn-HP vs Dyn-600."""
    from repro.experiments.fig11 import render_fig11

    return render_fig11(seed=args.seed)


def _cmd_fig12(args) -> str:
    """Fig. 12: dynamic allocation overhead (wall-clock)."""
    from repro.experiments.fig12 import render_fig12

    return render_fig12()


def _cmd_baselines(args) -> str:
    """Dyn-HP against the guaranteeing and SLURM-style designs."""
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


def _cmd_gantt(args) -> str:
    """ASCII schedule of the dynamic ESP run (Dyn-HP), one row per node.

    --ledger records the causal decision ledger and overlays its per-grant
    attribution.
    """
    from repro.cluster.machine import Cluster
    from repro.experiments.runner import (
        DEFAULT_CORES_PER_NODE,
        DEFAULT_NODES,
        run_esp_configuration_cached,
    )
    from repro.metrics.gantt import render_gantt

    telemetry = {"decision_ledger": True} if args.ledger else {}
    result = run_esp_configuration_cached("Dyn-HP", seed=args.seed, **telemetry)
    ledger = result.telemetry.ledger if args.ledger else None
    return "Dynamic ESP schedule (Dyn-HP), one row per node:\n" + render_gantt(
        result.trace,
        Cluster.homogeneous(DEFAULT_NODES, DEFAULT_CORES_PER_NODE),
        width=100,
        ledger=ledger,
    )


def _cmd_sweep(args) -> str:
    """Table II over 8 workload orders (mean ± std)."""
    from repro.experiments.sweep import render_sweep, run_seed_sweep

    return render_sweep(run_seed_sweep(workers=args.jobs))


def _cmd_campaign(args) -> str:
    """Random mixed workloads (rigid, moldable, malleable, evolving) by seed."""
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


def _cmd_export(args) -> str:
    """Every table and figure as one JSON document."""
    from repro.experiments.export import export_json

    return export_json(seed=args.seed)


def _cmd_resilience(args) -> str:
    """The Table II configurations under seeded fault injection.

    Node failures are drawn per node from an exponential or Weibull MTBF
    with exponential repairs, plus transient grant-delivery drops retried
    with exponential backoff (repro.faults).  --out DIR writes canonical
    resilience.json, byte-identical per seed, serial or -j N (CI cmp's
    two of them).  See docs/RESILIENCE.md.
    """
    from repro.experiments.resilience import (
        default_fault_model,
        export_resilience_json,
        render_resilience,
        run_resilience,
    )

    model = default_fault_model(
        fault_seed=args.fault_seed,
        mtbf=args.mtbf,
        mttr=args.mttr,
        distribution=args.fault_dist,
        burst_probability=args.burst_probability,
        delivery_failure_rate=args.delivery_failure_rate,
    )
    rows = run_resilience(seed=args.seed, fault_model=model, workers=args.jobs)
    out = render_resilience(rows)
    if args.out:
        path = export_resilience_json(
            rows, args.out, fault_model=model, seed=args.seed
        )
        out += f"\n\nresilience rows written to {path}"
    return out


def register(commands: Commands) -> None:
    seed, jobs = commands.seed, commands.jobs
    commands.add("table1", _cmd_table1).add_argument(
        "--cores", type=int, default=120, help="machine size in cores (default 120)"
    )
    table2 = commands.add("table2", _cmd_table2, seed, jobs).add_argument
    table2("--telemetry-out", default=None, metavar="DIR",
           help="dump per-config JSONL traces and Prometheus metrics to DIR")
    table2("--ledger", action="store_true",
           help="record the causal decision ledger (dumps <config>.ledger.jsonl)")
    table2("--profile", action="store_true",
           help="enable the phase profiler and windowed aggregates (dumps "
           "<config>.phases.jsonl and <config>.windows.jsonl)")
    table2("--window-width", type=positive_float, default=600.0, metavar="S",
           help="tumbling window width in sim seconds (default 600)")
    table2("--slo", action="append", default=None, metavar="OBJ",
           help="declare an SLO objective like 'p99_wait < 4h' (repeatable; "
           "dumps <config>.fairness.jsonl and <config>.slo.jsonl)")
    table2("--shards", type=positive_int, default=None, metavar="N",
           help="override the scheduler shard count (N >= 1; default: config value)")
    table2("--via-service", action="store_true",
           help="drive the runs through the always-on scheduler service")
    commands.add("fig7", _cmd_fig7)
    for name, func in (("fig8", _cmd_fig8), ("fig9", _cmd_fig9),
                       ("fig10", _cmd_fig10), ("fig11", _cmd_fig11)):
        commands.add(name, func, seed)
    commands.add("fig12", _cmd_fig12)
    commands.add("baselines", _cmd_baselines, seed)
    commands.add("gantt", _cmd_gantt, seed).add_argument(
        "--ledger", action="store_true",
        help="overlay the decision ledger's per-grant attribution",
    )
    commands.add("sweep", _cmd_sweep, jobs)
    commands.add("campaign", _cmd_campaign, jobs).add_argument(
        "--num-jobs", type=positive_int, default=200, metavar="N",
        help="jobs per random workload seed (default 200)",
    )
    commands.add("export", _cmd_export, seed)
    commands.add("resilience", _cmd_resilience, seed, jobs, commands.faults).add_argument(
        "--out", default=None, metavar="DIR",
        help="write machine-readable resilience.json to DIR",
    )
