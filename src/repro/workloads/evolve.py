"""Seeded transforms that make a trace workload dynamic.

Real traces (SWF logs) describe rigid jobs only; the paper's subject is
*evolving* applications.  :func:`evolving_ify` bridges the two: it takes any
:class:`~repro.workloads.spec.Workload` and converts a seeded fraction of its
jobs into evolving applications that grow mid-run via ``tm_dynget``, so
trace-driven experiments (the streaming replay benchmark, Section V-style
studies) exercise the dynamic-fairness machinery.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np

from repro.apps.synthetic import EvolvingWorkApp
from repro.cluster.allocation import ResourceRequest
from repro.jobs.evolution import (
    ESP_EXTRA_CORES,
    ESP_REQUEST_FRACTION,
    ESP_RETRY_FRACTION,
    EvolutionProfile,
)
from repro.workloads.spec import JobSpec, Workload

__all__ = ["evolving_ify"]


def evolving_ify(
    workload: Workload,
    fraction: float,
    seed: int,
    *,
    extra_cores: int = ESP_EXTRA_CORES,
    at_fraction: float = ESP_REQUEST_FRACTION,
    retry_fraction: float = ESP_RETRY_FRACTION,
) -> Workload:
    """Convert a seeded fraction of a workload's jobs to evolving jobs.

    Selection is deterministic in ``seed``: the same (workload, fraction,
    seed) triple always evolves the same jobs.  Each converted job gets the
    dynamic-ESP growth shape — one ``tm_dynget`` for ``extra_cores`` cores at
    ``at_fraction`` of its work, one retry at ``retry_fraction`` — and an
    :class:`EvolvingWorkApp` carrying the spec's original runtime as its SET.
    Jobs that already evolve are left untouched (and are not double-counted
    in the selection pool).

    Returns a new :class:`Workload`; the input is not modified.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1]: {fraction}")
    eligible = [
        i for i, spec in enumerate(workload.specs) if not spec.is_evolving
    ]
    count = round(fraction * len(eligible))
    rng = np.random.default_rng(seed)
    chosen = set(
        rng.choice(len(eligible), size=count, replace=False).tolist()
    ) if count else set()
    picked = {eligible[i] for i in chosen}
    # frozen, so every converted spec shares it
    profile = EvolutionProfile.single(
        at_fraction,
        ResourceRequest(cores=extra_cores),
        (retry_fraction,),
    )

    specs: list[JobSpec] = []
    for i, spec in enumerate(workload.specs):
        if i not in picked:
            specs.append(spec)
            continue
        # the SET (work integral) comes from the app when it knows better
        # than the walltime — FixedRuntimeApp runs for exactly .runtime
        runtime = spec.walltime
        if spec.app_factory is not None:
            app = spec.app_factory()
            runtime = getattr(app, "runtime", None) or getattr(
                app, "static_runtime", spec.walltime
            )
        specs.append(
            dataclasses.replace(
                spec,
                evolution=profile,
                app_factory=partial(EvolvingWorkApp, runtime),
            )
        )
    return Workload(specs=specs, name=f"{workload.name}+evolving{fraction:g}")
