"""The always-on scheduler service demo and the bench-snapshot trend gate."""

from __future__ import annotations

from repro.cli.common import Commands, load_input, positive_float, positive_int


def _cmd_serve(args) -> str:
    """Demo the always-on scheduler service end to end.

    Starts a SchedulerService (repro.service) on the simulator backend and
    drives a compact dynamic ESP workload through the submit/query API,
    or, with --replay-from, shadow-schedules a recorded trace on the
    replay backend.  --max-open throttles admissions per account.  It
    shuts down cleanly; the CI service-smoke job greps for the final
    "service shutdown: clean" line.
    """
    import asyncio

    from repro.service import (
        AdmissionPolicy,
        ReplayBackend,
        SchedulerService,
        SimBackend,
    )
    from repro.workloads.esp import make_esp_workload

    backend_cls = ReplayBackend if args.replay_from else SimBackend
    backend = backend_cls(trace_maxlen=args.trace_maxlen)
    admission = None
    if args.max_open is not None:
        admission = AdmissionPolicy(max_open_per_account=args.max_open)

    if args.replay_from:
        from repro.obs.exporters import read_jsonl

        recorded = load_input(args.replay_from, read_jsonl, "trace dump")
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


def _cmd_bench_trend(args) -> str:
    """Diff a BENCH_*.json snapshot against a baseline (the CI perf gate).

    Each metric is compared within a relative tolerance band;
    --fail-on-regress exits 1 when a directional metric regressed.
    """
    from repro.obs.benchtrend import (
        diff_snapshots,
        load_snapshot,
        regressions,
        render_trend,
    )

    rows = diff_snapshots(
        load_input(args.baseline, load_snapshot, "bench snapshot"),
        load_input(args.current, load_snapshot, "bench snapshot"),
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


def register(commands: Commands) -> None:
    serve = commands.add(
        "serve", _cmd_serve, commands.seed, commands.trace_maxlen
    ).add_argument
    serve("--replay-from", default=None, metavar="FILE",
          help="shadow-schedule a recorded .trace.jsonl on the replay backend")
    serve("--max-open", type=positive_int, default=None, metavar="N",
          help="admission throttle: max open jobs per account")
    trend = commands.add("bench-trend", _cmd_bench_trend).add_argument
    trend("--baseline", required=True, metavar="FILE",
          help="committed baseline BENCH_*.json")
    trend("--current", required=True, metavar="FILE",
          help="freshly generated BENCH_*.json")
    trend("--tolerance", type=positive_float, default=0.5,
          help="relative tolerance band (default 0.5)")
    trend("--fail-on-regress", action="store_true",
          help="exit 1 when a directional metric regressed")
