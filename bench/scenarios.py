"""The five benchmark workloads: set-up, timed region, simulated-outcome digest.

Each scenario is three functions.  ``setup`` makes the inputs from the seed
(part of ``setup_s``); ``run`` is the timed region ``wall_s`` covers, from
input file to complete result; ``finish`` runs after the clock has stopped
and turns what ``run`` left behind into *facts*: the program's own counters
read from public attributes, a digest over simulated outcomes, and any
output check.  Only names exported by the public packages are imported, so
internal refactors keep this running.

Sizes are the issue's sizes times ``BASE_SCALE`` — the one common factor
that fits 114 driver runs into the contract's time cap while every timed
run stays above five seconds on the 2-core box this was sized on.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import BatchSystem, EventKind, MauiConfig
from repro.experiments.configs import all_configurations
from repro.experiments.runner import run_esp_configuration
from repro.metrics import validate_trace
from repro.obs import Telemetry, export_jsonl, to_prometheus_text
from repro.service import SchedulerService, SimBackend
from repro.workloads import evolving_ify, from_swf, to_swf

from tracegen import CORES_PER_NODE, NUM_NODES, synthetic_swf

__all__ = ["SCENARIOS", "BASE_SCALE", "Context"]

#: common factor on the issue's job counts (12 000 / 4 000 / 5 000 / 4 ESP
#: seeds / 8 000); ``--scale`` multiplies on top of it
BASE_SCALE = 0.7

_SHALLOW_JOBS = 12_000
_DEEP_JOBS = 4_000
_OBSERVED_JOBS = 5_000
_SERVICE_JOBS = 8_000
_ESP_SEEDS = 4
_EVOLVING_FRACTION = 0.05
_TRACE_MAXLEN = 10_000
_SLO = ["p99_wait < 4h", "jain >= 0.5", "share_error < 0.2"]

#: service closed loop: simulated seconds per epoch, and the wall-clock
#: timeout on every awaited command
_EPOCH = 1800.0
_AWAIT_TIMEOUT = 60.0
_STALL_EPOCHS = 3



@dataclass
class Context:
    seed: int
    scale: float
    tmpdir: Path
    #: ``Tracer`` for the traced pass, None for the timed repeats
    tracer: object | None = None
    failures: list[str] = field(default_factory=list)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def jobs(self, base: int) -> int:
        return max(50, round(base * BASE_SCALE * self.scale))


def _maui_config() -> MauiConfig:
    return MauiConfig(reservation_depth=5, reservation_delay_depth=5, scheduler_shards=2)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _records_digest(records) -> str:
    """Simulated outcomes only, in submission order — no ids, no
    implementation counters."""
    return _digest(
        [
            (r.submit_time, r.start_time, r.end_time, r.state, r.dyn_granted)
            for r in records
        ]
    )


def _terminal(records) -> int:
    return sum(1 for r in records if r.end_time is not None)


def _sum_stats(total: dict, stats: dict) -> None:
    for key, value in stats.items():
        total[key] = total.get(key, 0) + value


def _idle_pending(engine) -> int:
    """``Engine.pending`` once nothing is queued (0 unless it miscounts)."""
    return engine.pending if engine.peek_time() is None else 0


# ----------------------------------------------------------------------
# replay workloads
# ----------------------------------------------------------------------
def _write_trace(ctx: Context, total_jobs: int, load: float, keep: int) -> Path:
    """Generate ``total_jobs`` and write the first ``keep`` to a temp file."""
    text = synthetic_swf(total_jobs, ctx.seed, load=load)
    if keep < total_jobs:
        text = "".join(text.splitlines(keepends=True)[:keep])
    path = ctx.tmpdir / "trace.swf"
    path.write_text(text)
    return path


def _load_workload(ctx: Context, path: Path):
    with ctx.span("workloads.parse"), open(path, encoding="utf-8") as fh:
        workload = from_swf(fh, chunk_size=1 << 14)
    with ctx.span("workloads.evolve"):
        return evolving_ify(workload, _EVOLVING_FRACTION, seed=ctx.seed)


def _system_facts(system, jobs: int) -> dict:
    return {
        "jobs": jobs,
        "pending_at_idle": _idle_pending(system.engine),
        "sched": dict(system.scheduler.stats),
        "trace_events": system.trace.total_recorded,
    }


def setup_shallow(ctx: Context):
    n = ctx.jobs(_SHALLOW_JOBS)
    return _write_trace(ctx, n, 0.7, n)


def setup_deep(ctx: Context):
    n = ctx.jobs(_DEEP_JOBS)
    return _write_trace(ctx, n, 0.98, n)


def run_folded(ctx: Context, path: Path):
    workload = _load_workload(ctx, path)
    with ctx.span("obs.setup"):
        telemetry = Telemetry(sample_interval=None, windows=3600.0, fold_and_discard=True)
    system = BatchSystem(
        NUM_NODES, CORES_PER_NODE, _maui_config(),
        telemetry=telemetry, trace_maxlen=_TRACE_MAXLEN,
    )
    workload.submit_to(system)
    system.run(max_events=100_000_000)
    # fold_and_discard drops jobs as they finish: the complete result is
    # the streaming aggregates
    return system, len(workload), telemetry.windows.totals_dict()


def finish_folded(ctx: Context, path: Path, live) -> dict:
    system, jobs, totals = live
    windows = system.telemetry.windows
    summary = {
        "jobs_completed": totals["jobs_completed"],
        "satisfied_dyn_jobs": totals["satisfied_dyn_jobs"],
        "mean_wait": repr(float(windows.mean_wait)),
        "utilization": repr(float(totals["utilization"])),
    }
    return {
        **_system_facts(system, jobs),
        "jobs_terminal": totals["jobs_finished"],
        "summary": summary,
        "digest": _digest(summary),
    }


def setup_observed(ctx: Context):
    return _write_trace(ctx, ctx.jobs(_SHALLOW_JOBS), 0.7, ctx.jobs(_OBSERVED_JOBS))


def run_observed(ctx: Context, path: Path):
    workload = _load_workload(ctx, path)
    with ctx.span("obs.setup"):
        telemetry = Telemetry(
            sample_interval=60, windows=3600.0, decision_ledger=True,
            fairness=True, slo=_SLO,
        )
    system = BatchSystem(NUM_NODES, CORES_PER_NODE, _maui_config(), telemetry=telemetry)
    workload.submit_to(system)
    system.run(max_events=100_000_000)
    metrics = system.metrics()
    with ctx.span("obs.export"):
        out = ctx.tmpdir / "export"
        out.mkdir()
        export_jsonl(system.trace, out / "trace.jsonl")
        decisions = telemetry.ledger.export_jsonl(out / "ledger.jsonl")
        (out / "metrics.prom").write_text(to_prometheus_text(telemetry.registry))
        (out / "jobs.swf").write_text(to_swf(metrics))
    return system, len(workload), metrics, decisions, out


def finish_observed(ctx: Context, path: Path, live) -> dict:
    system, jobs, metrics, decisions, out = live
    # SLO breaches (and their ledger mirror) are recorded with their
    # window's end time, which lies behind the event that closed the
    # window; validate_trace reads that as time running backwards
    # (README.md, known defect 4), so they are left out of the check
    lifecycle = [
        e
        for e in system.trace
        if e.kind is not EventKind.SLO_BREACH
        and e.payload.get("decision") != "slo_breach"
    ]
    ctx.failures.extend(
        f"validate_trace: {problem}"
        for problem in validate_trace(lifecycle, system.cluster)
    )
    records = metrics.records
    return {
        **_system_facts(system, jobs),
        "jobs_terminal": _terminal(records),
        "ledger_decisions": decisions,
        "export_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "summary": {
            "jobs_completed": metrics.completed_jobs,
            "satisfied_dyn_jobs": metrics.satisfied_dyn_jobs,
            "mean_wait": repr(float(metrics.mean_wait)),
            "utilization": repr(float(metrics.utilization)),
        },
        "digest": _records_digest(records),
    }


# ----------------------------------------------------------------------
# the paper's workload
# ----------------------------------------------------------------------
def setup_esp(ctx: Context):
    seeds = max(1, round(_ESP_SEEDS * BASE_SCALE * ctx.scale))
    return [ctx.seed + i for i in range(seeds)]


def run_esp(ctx: Context, seeds: list[int]):
    return [
        (seed, run_esp_configuration(configuration, seed=seed))
        for seed in seeds
        for configuration in all_configurations()
    ]


def finish_esp(ctx: Context, seeds: list[int], results) -> dict:
    sched: dict = {}
    jobs = terminal = 0
    digests: list[str] = []
    cells: list[dict] = []
    util_err: list[float] = []
    satisfied_err: list[float] = []
    for seed, result in results:
        _sum_stats(sched, result.scheduler_stats)
        records = result.metrics.records
        jobs += len(records)
        terminal += _terminal(records)
        digests.append(_records_digest(records))
        if seed != seeds[0]:
            continue
        # Table II, first seed: measured against the paper's cells
        m, paper = result.metrics, result.configuration.paper_reference
        cells.append(
            {
                "config": result.name,
                "time_min": round(m.workload_time_minutes, 2),
                "satisfied": m.satisfied_dyn_jobs,
                "util_pct": round(100.0 * m.utilization, 2),
            }
        )
        util_err.append(abs(100.0 * m.utilization - paper["util_pct"]))
        if result.configuration.dynamic_workload:
            satisfied_err.append(abs(m.satisfied_dyn_jobs - paper["satisfied"]))
    return {
        "jobs": jobs,
        "jobs_terminal": terminal,
        # run_esp_configuration keeps its engine to itself
        "pending_at_idle": 0,
        "sched": sched,
        "table2": {
            "util_err_pp": sum(util_err) / len(util_err),
            "satisfied_err": sum(satisfied_err) / len(satisfied_err),
        },
        "summary": {"table2_cells": cells},
        "digest": _digest(digests),
    }


# ----------------------------------------------------------------------
# the service under two tenants
# ----------------------------------------------------------------------
def setup_service(ctx: Context):
    path = _write_trace(ctx, ctx.jobs(_SHALLOW_JOBS), 0.7, ctx.jobs(_SERVICE_JOBS))
    with open(path, encoding="utf-8") as fh:
        workload = evolving_ify(
            from_swf(fh, chunk_size=1 << 14), _EVOLVING_FRACTION, seed=ctx.seed
        )
    # jobs stay retained (no fold_and_discard): a service has to answer
    # job_info for jobs that already finished
    backend = SimBackend(
        num_nodes=NUM_NODES, cores_per_node=CORES_PER_NODE, config=_maui_config(),
        telemetry=Telemetry(sample_interval=None, windows=3600.0),
        trace_maxlen=_TRACE_MAXLEN,
    )
    return workload, backend, SchedulerService(backend)


def run_service(ctx: Context, state):
    workload, backend, service = state
    driver = _TenantDriver(ctx, workload.specs, backend, service)
    asyncio.run(driver.drive())
    return driver


def finish_service(ctx: Context, state, driver) -> dict:
    workload, backend, service = state
    core = backend.core
    records = service.metrics().records
    return {
        "jobs": len(workload),
        "jobs_terminal": _terminal(records),
        "pending_at_idle": _idle_pending(core.engine),
        "sched": dict(core.scheduler.stats),
        "trace_events": core.trace.total_recorded,
        "service": dict(service.stats),
        "latencies": driver.latencies,
        "epochs": driver.epochs,
        "stalled_jobs": driver.stalled_jobs,
        "summary": {
            "jobs_completed": sum(1 for r in records if r.state == "completed"),
            "satisfied_dyn_jobs": sum(
                1 for r in records if r.evolving and r.dyn_granted
            ),
        },
        "digest": _records_digest(records),
    }


class _TenantDriver:
    """Closed loop: one clock driver and two tenants, three coroutines per
    epoch in one thread, each with at most one command outstanding.

    In epoch ``k`` the clock driver awaits ``run_until(k * 1800 s)`` while
    each tenant submits its half of the jobs that arrive during the next
    1800 s, asks ``job_info`` for one of its older jobs on every 4th submit
    and ``queue_info`` every 8th epoch.  The command sequence is a pure
    function of the specs — no wall-clock pacing — so counts and the
    schedule repeat exactly.

    The loop is written around three service defects (README.md, "Known
    defects"): time only advances through ``run_until`` (never a bare
    ``drain()``), ``job_info`` only names jobs whose submit time has
    passed, every await has a timeout, and the run ends when
    ``peek_time()`` is None or the clock stops following ``run_until`` —
    ``Engine.pending`` is not trusted.
    """

    def __init__(self, ctx: Context, specs, backend, service) -> None:
        self.ctx = ctx
        self.backend = backend
        self.service = service
        self.latencies: dict[str, list[float]] = {
            "submit": [], "job_info": [], "queue_info": [], "run_until": [],
        }
        self.epochs = 0
        self.stalled_jobs = 0
        #: per epoch, per tenant: the specs to submit while the clock
        #: advances to the start of that epoch
        self.last_epoch = max(self._epoch_of(s.submit_time) for s in specs)
        self.plan = [([], []) for _ in range(self.last_epoch + 1)]
        for i, spec in enumerate(specs):
            self.plan[self._epoch_of(spec.submit_time)][i % 2].append(spec)
        #: per tenant: (epoch submitted in, job id)
        self.submitted: tuple[list, list] = ([], [])
        self.submits = [0, 0]

    @staticmethod
    def _epoch_of(submit_time: float) -> int:
        return max(0, math.ceil(submit_time / _EPOCH) - 1)

    async def _timed(self, verb: str, coro):
        """Await one public coroutine under the timeout and time it; a
        failed or timed-out command has infinite latency (it misses any
        limit) and fails the run."""
        try:
            async with asyncio.timeout(_AWAIT_TIMEOUT):
                start = time.perf_counter()
                result = await coro
                elapsed = time.perf_counter() - start
        except Exception as exc:  # boundary: record, keep the loop alive
            self.ctx.failures.append(f"{verb}: {exc!r}")
            self.latencies[verb].append(math.inf)
            return None
        self.latencies[verb].append(elapsed)
        return result

    async def _clock(self, epoch: int) -> None:
        await self._timed("run_until", self.service.run_until(epoch * _EPOCH))

    async def _tenant(self, tenant: int, epoch: int) -> None:
        mine = self.submitted[tenant]
        specs = self.plan[epoch][tenant] if epoch <= self.last_epoch else ()
        for spec in specs:
            info = await self._timed("submit", self.service.submit(spec))
            if info is not None:
                mine.append((epoch, info.job_id))
            self.submits[tenant] += 1
            if self.submits[tenant] % 4 == 0:
                # a job submitted two epochs ago has reached the server
                # whatever the interleaving (its submit time has passed)
                older = [job_id for ep, job_id in mine[-64:] if ep <= epoch - 2]
                if older:
                    await self._timed("job_info", self.service.job_info(older[-1]))
        if epoch % 8 == 0:
            await self._timed("queue_info", self.service.queue_info())

    async def drive(self) -> None:
        engine = self.backend.core.engine
        await self.service.start()
        epoch = stalled = 0
        while True:
            await asyncio.gather(
                self._clock(epoch), self._tenant(0, epoch), self._tenant(1, epoch)
            )
            if self.backend.now < epoch * _EPOCH:
                stalled += 1  # run_until returned without moving the clock
            else:
                stalled = 0
            epoch += 1
            if epoch > self.last_epoch and (
                engine.peek_time() is None or stalled >= _STALL_EPOCHS
            ):
                break
        self.epochs = epoch
        if engine.peek_time() is not None:
            # the service stopped following the clock with events still
            # queued (Engine.pending read 0): count what it stranded, then
            # finish the simulation through the backend's own advance so
            # the outcome check still sees a complete schedule
            info = await self._timed("queue_info", self.service.queue_info())
            if info is not None:
                self.stalled_jobs = info.total_jobs - info.finished
            self.backend.advance()
        async with asyncio.timeout(_AWAIT_TIMEOUT):
            await self.service.stop()


SCENARIOS = {
    "replay_shallow": (setup_shallow, run_folded, finish_folded),
    "replay_deep": (setup_deep, run_folded, finish_folded),
    "replay_observed": (setup_observed, run_observed, finish_observed),
    "esp_dyn": (setup_esp, run_esp, finish_esp),
    "service_tenants": (setup_service, run_service, finish_service),
}
