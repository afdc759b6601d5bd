"""Table II — performance comparison of the four evaluation configurations."""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.experiments.configs import all_configurations
from repro.experiments.runner import (
    ESPResult,
    run_esp_configuration,
    run_esp_configuration_cached,
    run_esp_configuration_via_service,
)
from repro.metrics.report import render_table

__all__ = ["run_table2", "run_table2_instrumented", "render_table2", "with_shards"]


def with_shards(configuration, shards: int | None):
    """Return the configuration with a scheduler-shard-count override."""
    if shards is None:
        return configuration
    return dataclasses.replace(
        configuration,
        maui=dataclasses.replace(configuration.maui, scheduler_shards=shards),
    )


def run_table2(
    seed: int = 2014,
    *,
    workers: int = 1,
    telemetry=None,
    shards: int | None = None,
    via_service: bool = False,
) -> list[ESPResult]:
    """Run (or reuse) all four configurations; Static is the baseline row.

    Serial default runs go through the in-process result cache.  Other
    runs are fresh simulations, in worker processes with ``workers > 1``
    (results are identical either way).  ``shards`` overrides the
    scheduler shard count and ``via_service`` drives each run through the
    scheduler service; both bypass the cache so they never alias the
    default entries.
    """
    from repro.exec import map_specs, resolve_workers
    from repro.exec.specs import Table2RunSpec, run_table2_result

    if resolve_workers(workers) == 1 and shards is None and not via_service:
        return [
            run_esp_configuration_cached(cfg.name, seed=seed)
            for cfg in all_configurations()
        ]
    specs = [
        Table2RunSpec(cfg.name, seed, shards=shards, via_service=via_service)
        for cfg in all_configurations()
    ]
    return map_specs(
        run_table2_result, specs, workers=workers, telemetry=telemetry, label="table2"
    )


def _run_instrumented_config(
    config_name: str,
    seed: int,
    out_dir: str | Path | None,
    *,
    decision_ledger: bool = False,
    profile: bool = False,
    window_width: float = 600.0,
    shards: int | None = None,
    slo: tuple[str, ...] | None = None,
    via_service: bool = False,
) -> ESPResult:
    """Run one configuration with full telemetry and write its dumps.

    This is the single implementation behind both the serial loop and the
    parallel exec-engine worker (``Table2InstrumentedSpec``) — one writer
    is what makes ``-j N`` dumps byte-identical to serial ones.  With
    ``via_service`` the run is driven through the scheduler service on the
    simulator backend instead of directly — by the service's bit-identity
    contract the dumps must stay byte-identical (the CI golden check).
    """
    from repro.obs import Telemetry, export_jsonl, to_prometheus_text

    cfg = next(c for c in all_configurations() if c.name == config_name)
    telemetry = Telemetry(
        decision_ledger=decision_ledger,
        profiling=profile,
        windows=window_width if (profile or slo) else None,
        slo=list(slo) if slo else None,
    )
    runner = run_esp_configuration_via_service if via_service else run_esp_configuration
    result = runner(with_shards(cfg, shards), seed=seed, telemetry=telemetry)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_jsonl(result.trace, out / f"{cfg.name}.trace.jsonl")
        (out / f"{cfg.name}.metrics.prom").write_text(
            to_prometheus_text(telemetry.registry)
        )
        if telemetry.ledger is not None:
            telemetry.ledger.export_jsonl(out / f"{cfg.name}.ledger.jsonl")
        if telemetry.profiler is not None:
            with open(out / f"{cfg.name}.phases.jsonl", "w") as fp:
                telemetry.profiler.export_phases_jsonl(fp)
        if telemetry.windows is not None:
            with open(out / f"{cfg.name}.windows.jsonl", "w") as fp:
                telemetry.windows.export_jsonl(fp)
        if telemetry.fairness is not None:
            with open(out / f"{cfg.name}.fairness.jsonl", "w") as fp:
                telemetry.fairness.export_jsonl(fp)
        if telemetry.slo is not None:
            with open(out / f"{cfg.name}.slo.jsonl", "w") as fp:
                telemetry.slo.export_jsonl(fp)
    return result


def run_table2_instrumented(
    seed: int = 2014,
    out_dir: str | Path | None = None,
    *,
    decision_ledger: bool = False,
    profile: bool = False,
    window_width: float = 600.0,
    shards: int | None = None,
    slo: tuple[str, ...] | None = None,
    workers: int = 1,
    via_service: bool = False,
) -> list[ESPResult]:
    """Table II with full telemetry: fresh runs, one Telemetry each.

    When ``out_dir`` is given, each configuration dumps its event trace as
    ``<config>.trace.jsonl`` and its metrics registry as
    ``<config>.metrics.prom`` (Prometheus text exposition) into it.  With
    ``decision_ledger=True`` the scheduler's causal decision ledger is
    recorded too and dumped as ``<config>.ledger.jsonl`` — deterministic
    per (config, seed), so two runs produce byte-identical files (the CI
    golden-ledger check relies on this).  With ``profile=True`` the phase
    profiler and windowed aggregates run too, dumped as
    ``<config>.phases.jsonl`` and ``<config>.windows.jsonl``
    (``window_width`` sim-seconds per tumbling window); both are readable
    by the ``perf-report`` subcommand.  With ``slo`` (a sequence of
    objective strings like ``"p99_wait < 4h"``) the fairness observatory
    and SLO engine run over the same windows and dump
    ``<config>.fairness.jsonl`` and ``<config>.slo.jsonl`` — also
    byte-identical per (config, seed), and per worker count: with
    ``workers > 1`` the configurations run in exec-engine worker
    processes through the same single writer (the CI serial-vs-``-j 2``
    golden check relies on this).  ``shards`` overrides the scheduler
    shard count; the default single-shard dumps are what CI checks against
    ``tests/golden/table2_seed2014.sha256`` (traces with their
    ``reservation_create`` lines set aside).
    ``via_service`` drives each run through the scheduler service on the
    simulator backend (``repro.service``); the CI service golden check
    byte-compares its dumps against the direct path's.
    """
    from repro.exec import map_specs, resolve_workers

    if resolve_workers(workers) == 1:
        return [
            _run_instrumented_config(
                cfg.name,
                seed,
                out_dir,
                decision_ledger=decision_ledger,
                profile=profile,
                window_width=window_width,
                shards=shards,
                slo=slo,
                via_service=via_service,
            )
            for cfg in all_configurations()
        ]
    from repro.exec.specs import Table2InstrumentedSpec, run_table2_instrumented_result

    specs = [
        Table2InstrumentedSpec(
            cfg.name,
            seed,
            None if out_dir is None else str(out_dir),
            decision_ledger=decision_ledger,
            profile=profile,
            window_width=window_width,
            shards=shards,
            slo=tuple(slo) if slo else None,
            via_service=via_service,
        )
        for cfg in all_configurations()
    ]
    return map_specs(
        run_table2_instrumented_result,
        specs,
        workers=workers,
        label="table2-instrumented",
    )


def render_table2(results: list[ESPResult] | None = None, seed: int = 2014) -> str:
    if results is None:
        results = run_table2(seed=seed)
    baseline = results[0]
    headers = [
        "Config",
        "Time[min]",
        "Satisfied Dyn Jobs",
        "Util[%]",
        "TP[jobs/min]",
        "TP increase[%]",
        "paper Time",
        "paper Sat",
        "paper Util",
    ]
    body = []
    for result in results:
        row = result.table2_row(baseline)
        ref = result.configuration.paper_reference
        body.append(
            [
                row["config"],
                f"{row['time_min']:.2f}",
                row["satisfied_dyn_jobs"],
                f"{row['util_pct']:.2f}",
                f"{row['throughput_jobs_per_min']:.2f}",
                "-" if "tp_increase_pct" not in row else f"{row['tp_increase_pct']:.1f}",
                f"{ref['time_min']:.2f}",
                ref["satisfied"],
                f"{ref['util_pct']:.2f}",
            ]
        )
    return render_table(
        headers, body, title="Table II — performance comparison (measured vs paper)"
    )
