"""The ESP benchmark and its dynamic (evolving-job) variant — paper Table I.

The original ESP system-utilization benchmark (Wong et al., SC 2000) runs
230 jobs of 14 types; every type occupies a fixed fraction of the machine
and runs a fixed time.  The paper modifies it so job types F, G, H, I and J
(69 jobs, 30 %) are *evolving*: each requests 4 extra cores after 16 % of
its static execution time (SET), retries at 25 % if rejected, and — on a
grant — finishes early per the linear speedup model (Table I's dynamic
execution time, DET).

Every rigid type is owned by a distinct user and all evolving types by
``user06``, reproducing the paper's per-user fairness accounting exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.synthetic import EvolvingWorkApp, FixedRuntimeApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import (
    ESP_EXTRA_CORES,
    ESP_REQUEST_FRACTION,
    ESP_RETRY_FRACTION,
    EvolutionProfile,
)
from repro.workloads.spec import JobSpec, Workload
from repro.workloads.submission import esp_submission_times

__all__ = [
    "ESPJobType",
    "ESP_JOB_TYPES",
    "esp_core_count",
    "esp_job_spec",
    "expected_dynamic_runtime",
    "make_esp_workload",
]


@dataclass(frozen=True, slots=True)
class ESPJobType:
    """One row of Table I."""

    letter: str
    user: str
    fraction: float
    count: int
    #: static execution time in seconds (SET)
    static_execution_time: float
    #: the paper's reference dynamic execution time (DET); None for rigid jobs
    paper_det: float | None = None

    @property
    def is_evolving(self) -> bool:
        return self.paper_det is not None


#: Table I of the paper, verbatim.
ESP_JOB_TYPES: tuple[ESPJobType, ...] = (
    ESPJobType("A", "user01", 0.03125, 75, 267.0),
    ESPJobType("B", "user02", 0.06250, 9, 322.0),
    ESPJobType("C", "user03", 0.50000, 3, 534.0),
    ESPJobType("D", "user04", 0.25000, 3, 616.0),
    ESPJobType("E", "user05", 0.50000, 3, 315.0),
    ESPJobType("F", "user06", 0.06250, 9, 1846.0, 1230.0),
    ESPJobType("G", "user06", 0.12500, 6, 1334.0, 1067.0),
    ESPJobType("H", "user06", 0.15820, 6, 1067.0, 896.0),
    ESPJobType("I", "user06", 0.03125, 24, 1432.0, 716.0),
    ESPJobType("J", "user06", 0.06250, 24, 725.0, 483.0),
    ESPJobType("K", "user07", 0.09570, 15, 487.0),
    ESPJobType("L", "user08", 0.12500, 36, 366.0),
    ESPJobType("M", "user09", 0.25000, 15, 187.0),
    ESPJobType("Z", "user10", 1.00000, 2, 100.0),
)


def esp_core_count(fraction: float, total_cores: int) -> int:
    """Cores for an ESP size fraction on a machine of ``total_cores``."""
    return max(1, round(fraction * total_cores))


def expected_dynamic_runtime(
    set_seconds: float, base_cores: int, extra_cores: int, granted_at_fraction: float
) -> float:
    """Runtime under the linear model with a grant at the given fraction.

    A grant at fraction *f* leaves ``(1-f)·SET`` of work to run at speedup
    ``(c+k)/c``: total = ``f·SET + (1-f)·SET·c/(c+k)``.  With ``f = 0`` this
    is the whole-run DET, ``SET·c/(c+k)``.
    """
    c, k = base_cores, extra_cores
    return set_seconds * (granted_at_fraction + (1 - granted_at_fraction) * c / (c + k))


def make_esp_workload(
    total_cores: int = 120,
    *,
    dynamic: bool = True,
    seed: int = 2014,
    burst: int = 50,
    interval: float = 30.0,
    walltime_factor: float = 1.0,
    negotiation_timeout: float | None = None,
) -> Workload:
    """Build the (dynamic) ESP workload for a machine of ``total_cores``.

    :param dynamic: with False, types F-J are plain rigid jobs — the paper's
        "Static" workload configuration.
    :param seed: deterministic shuffle of the 228 regular jobs ("submitted in
        a particular order"); the 2 Z jobs always come last, 30 minutes after
        the final regular submission.
    :param walltime_factor: requested walltime as a multiple of SET (users
        typically over-request; 1.0 reproduces ESP's exact-walltime runs).
    :param negotiation_timeout: when set, evolving jobs use the negotiation
        protocol with this window instead of the paper's 25 % retry (the
        Section III-C outlook, studied by the negotiation ablation bench).
    """

    def regular(jtype: ESPJobType, submit_time: float, cores: int) -> JobSpec:
        return esp_job_spec(
            submit_time, cores, jtype.static_execution_time, walltime_factor,
            jtype.user, evolving=dynamic and jtype.is_evolving,
            negotiation_timeout=negotiation_timeout, esp_type=jtype.letter,
        )

    name = "dynamic-esp" if dynamic else "static-esp"
    return _esp_schedule(
        name, regular, total_cores, seed=seed, walltime_factor=walltime_factor,
        burst=burst, interval=interval,
    )


def _esp_schedule(
    name: str,
    regular: Callable[[ESPJobType, float, int], JobSpec],
    total_cores: int,
    *,
    seed: int,
    walltime_factor: float,
    burst: int = 50,
    interval: float = 30.0,
) -> Workload:
    """The ESP submission schedule every ESP variant shares.

    The 228 regular jobs are shuffled by ``seed`` (the fixed "particular
    order"), submitted by :func:`esp_submission_times` and turned into
    specs by ``regular(jtype, submit_time, cores)``, ``cores`` being the
    type's share of ``total_cores``; the two top-priority Z jobs follow.
    A variant supplies only ``regular``.
    """
    if walltime_factor < 1.0:
        raise ValueError("walltime must cover the static execution time")
    *regular_types, z_type = ESP_JOB_TYPES  # Z is Table I's last row
    ordered: list[ESPJobType] = []
    for jtype in regular_types:
        ordered.extend([jtype] * jtype.count)
    rng = np.random.default_rng(seed)
    rng.shuffle(ordered)
    regular_times, z_times = esp_submission_times(
        len(ordered), z_type.count, burst=burst, interval=interval
    )
    specs = [
        regular(jtype, submit_time, esp_core_count(jtype.fraction, total_cores))
        for submit_time, jtype in zip(regular_times, ordered)
    ]
    specs.extend(
        esp_job_spec(
            submit_time, esp_core_count(z_type.fraction, total_cores),
            z_type.static_execution_time, walltime_factor, z_type.user,
            esp_type=z_type.letter, top_priority=True,
        )
        for submit_time in z_times
    )
    return Workload(specs=specs, name=name)


def esp_job_spec(
    submit_time: float,
    cores: int,
    runtime: float,
    walltime_factor: float,
    user: str,
    *,
    evolving: bool = False,
    extra_cores: int = ESP_EXTRA_CORES,
    negotiation_timeout: float | None = None,
    **fields,
) -> JobSpec:
    """One job of ``runtime`` seconds' work on ``cores`` cores, asking for
    ``walltime_factor`` times that: rigid, or with ``evolving`` a
    :class:`EvolvingWorkApp` growing by the dynamic-ESP shape —
    ``extra_cores`` at 16 % of its work, retried at 25 % unless it
    negotiates for ``negotiation_timeout`` seconds instead.  ``fields`` are
    further :class:`JobSpec` fields."""
    evolution = None
    app_factory = lambda: FixedRuntimeApp(runtime)
    if evolving:
        retries = () if negotiation_timeout is not None else (ESP_RETRY_FRACTION,)
        evolution = EvolutionProfile.single(
            ESP_REQUEST_FRACTION, ResourceRequest(cores=extra_cores), retries
        )
        app_factory = lambda: EvolvingWorkApp(
            runtime, negotiation_timeout=negotiation_timeout
        )
    return JobSpec(
        submit_time=submit_time,
        request=ResourceRequest(cores=cores),
        walltime=runtime * walltime_factor,
        user=user,
        evolution=evolution,
        app_factory=app_factory,
        **fields,
    )
