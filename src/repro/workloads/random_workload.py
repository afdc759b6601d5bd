"""Randomised mixed workloads (extension beyond the paper's ESP runs).

Useful for stress tests and for exploring fairness-policy behaviour on
workloads the paper did not publish: Poisson arrivals, log-uniform runtimes
and sizes, and a configurable evolving-job share whose requests follow the
dynamic-ESP pattern.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.jobs.evolution import ESP_EXTRA_CORES
from repro.workloads.esp import esp_job_spec
from repro.workloads.spec import Workload

__all__ = [
    "make_random_workload",
    "make_diurnal_workload",
    "run_random_campaign",
    "DEFAULT_CAMPAIGN_TRACE_MAXLEN",
]

#: campaign runs keep a bounded event trace by default: long random
#: campaigns otherwise accumulate millions of events nobody replays —
#: utilization stays exact, read from the server's busy-core integral
DEFAULT_CAMPAIGN_TRACE_MAXLEN = 100_000


def make_random_workload(
    num_jobs: int,
    total_cores: int,
    *,
    evolving_share: float = 0.3,
    mean_interarrival: float = 60.0,
    runtime_range: tuple[float, float] = (120.0, 3600.0),
    size_range: tuple[int, int] = (1, 32),
    extra_cores: int = ESP_EXTRA_CORES,
    num_users: int = 8,
    walltime_factor: float = 1.2,
    seed: int = 0,
) -> Workload:
    """A reproducible random mix of rigid and evolving jobs.

    Sizes and runtimes are log-uniform (heavy on small jobs, as production
    traces are); arrivals are exponential.  Each user owns an equal slice of
    the job stream so fairness ledgers have several principals to track.
    """
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    if not 0.0 <= evolving_share <= 1.0:
        raise ValueError("evolving_share must be in [0, 1]")
    if size_range[0] < 1 or size_range[1] > total_cores:
        raise ValueError("size_range outside machine capacity")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(mean_interarrival, size=num_jobs))
    runtimes = np.exp(
        rng.uniform(np.log(runtime_range[0]), np.log(runtime_range[1]), size=num_jobs)
    )
    sizes = np.exp(
        rng.uniform(np.log(size_range[0]), np.log(size_range[1]), size=num_jobs)
    ).round().astype(int)
    sizes = np.clip(sizes, size_range[0], size_range[1])
    evolving = rng.random(num_jobs) < evolving_share

    specs = [
        esp_job_spec(
            float(arrivals[i]), int(sizes[i]), float(runtimes[i]), walltime_factor,
            f"ruser{int(rng.integers(num_users)):02d}",
            evolving=bool(evolving[i]), extra_cores=extra_cores,
        )
        for i in range(num_jobs)
    ]
    return Workload(specs=specs, name=f"random-{num_jobs}")


def run_random_campaign(
    num_jobs: int,
    *,
    num_nodes: int = 15,
    cores_per_node: int = 8,
    config=None,
    seeds: list[int] | None = None,
    trace_maxlen: int | None = DEFAULT_CAMPAIGN_TRACE_MAXLEN,
    evolving_share: float = 0.3,
    mean_interarrival: float = 60.0,
    workers: int = 1,
    telemetry=None,
) -> list[dict]:
    """Run the random workload over several seeds with bounded traces.

    Each seed keeps a ring-buffer trace of ``trace_maxlen`` events (pass
    ``None`` for an unbounded trace).  Returns one summary dict per seed —
    utilization comes from the server's busy-core integral, so it is exact
    even after the ring has dropped the start of the run.

    ``workers`` fans the seeds out over worker processes (serial and
    parallel runs share one worker function, so the rows are identical);
    ``telemetry`` is the *parent-side* facade for campaign progress gauges.
    """
    from repro.exec import map_specs

    if seeds is None:
        seeds = [0, 1, 2]
    worker = partial(
        _campaign_row,
        num_jobs=num_jobs,
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        config=config,
        trace_maxlen=trace_maxlen,
        evolving_share=evolving_share,
        mean_interarrival=mean_interarrival,
    )
    return map_specs(
        worker, seeds, workers=workers, telemetry=telemetry, label="campaign"
    )


def _campaign_row(
    seed: int,
    *,
    num_jobs: int,
    num_nodes: int,
    cores_per_node: int,
    config,
    trace_maxlen: int | None,
    evolving_share: float,
    mean_interarrival: float,
) -> dict:
    """Simulate one campaign seed and return its summary row."""
    from repro.system import BatchSystem

    system = BatchSystem(num_nodes, cores_per_node, config, trace_maxlen=trace_maxlen)
    make_random_workload(
        num_jobs,
        num_nodes * cores_per_node,
        evolving_share=evolving_share,
        mean_interarrival=mean_interarrival,
        seed=seed,
    ).submit_to(system)
    system.run(max_events=5_000_000)
    m = system.metrics()
    return {
        "seed": seed,
        "completed": m.completed_jobs,
        "satisfied": m.satisfied_dyn_jobs,
        "util_pct": 100.0 * m.utilization,
        "mean_wait": m.mean_wait,
        "trace_events": len(system.trace),
        "trace_dropped": system.trace.dropped,
    }


def make_diurnal_workload(
    num_days: int,
    total_cores: int,
    *,
    jobs_per_day: int = 120,
    day_fraction: float = 0.75,
    evolving_share: float = 0.3,
    runtime_range: tuple[float, float] = (300.0, 7200.0),
    size_range: tuple[int, int] = (1, 32),
    extra_cores: int = ESP_EXTRA_CORES,
    num_users: int = 10,
    walltime_factor: float = 1.3,
    seed: int = 0,
) -> Workload:
    """A multi-day workload with a day/night arrival cycle.

    Production traces are strongly diurnal; ``day_fraction`` of each day's
    submissions land in the 12 "working hours", the rest overnight.  The
    pattern matters to the dynamic fairness policies: ``DFSInterval`` windows
    and ``DFSDecay`` carry-over interact with busy days and quiet nights —
    a decay of 1.0 lets daytime delay debt suppress grants all night, a
    decay of 0.0 resets the ledger every interval regardless of load.
    """
    if num_days <= 0 or jobs_per_day <= 0:
        raise ValueError("num_days and jobs_per_day must be positive")
    if not 0.0 <= day_fraction <= 1.0:
        raise ValueError("day_fraction must be in [0, 1]")
    if not 0.0 <= evolving_share <= 1.0:
        raise ValueError("evolving_share must be in [0, 1]")
    rng = np.random.default_rng(seed)
    day = 86_400.0
    working_start, working_end = 8 * 3600.0, 20 * 3600.0

    arrivals: list[float] = []
    for d in range(num_days):
        n_day = int(round(jobs_per_day * day_fraction))
        n_night = jobs_per_day - n_day
        day_times = rng.uniform(working_start, working_end, size=n_day)
        night_a = rng.uniform(0.0, working_start, size=n_night // 2)
        night_b = rng.uniform(working_end, day, size=n_night - n_night // 2)
        for t in (*day_times, *night_a, *night_b):
            arrivals.append(d * day + float(t))
    arrivals.sort()

    runtimes = np.exp(
        rng.uniform(
            np.log(runtime_range[0]), np.log(runtime_range[1]), size=len(arrivals)
        )
    )
    sizes = np.clip(
        np.exp(
            rng.uniform(np.log(size_range[0]), np.log(size_range[1]), size=len(arrivals))
        ).round().astype(int),
        size_range[0],
        min(size_range[1], total_cores),
    )
    evolving = rng.random(len(arrivals)) < evolving_share

    specs = [
        esp_job_spec(
            submit, int(sizes[i]), float(runtimes[i]), walltime_factor,
            f"duser{int(rng.integers(num_users)):02d}",
            evolving=bool(evolving[i]), extra_cores=extra_cores,
        )
        for i, submit in enumerate(arrivals)
    ]
    return Workload(specs=specs, name=f"diurnal-{num_days}d")
