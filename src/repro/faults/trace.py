"""Seeded failure-trace generation.

The generator turns a :class:`~repro.faults.model.FaultModel` into an
ordered list of :class:`FaultEvent` records *before* the simulation
starts, so the whole failure history is inspectable, serialisable and —
because each node draws from its own child RNG — independent of how
many nodes the cluster has or the order they are asked about.

The trace is *consistent by construction*: per node, down-intervals are
unioned before emission, so events strictly alternate fail → recover
and a correlated burst can never "double-fail" a node that an earlier
draw already took down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.faults.model import FaultModel

__all__ = ["FaultEvent", "generate_failure_trace"]

FAIL = "fail"
RECOVER = "recover"


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One node-state transition in a failure trace."""

    time: float
    kind: str  # FAIL | RECOVER
    node: int


def _sample_tbf(rng: random.Random, model: FaultModel) -> float:
    """Draw one time-between-failures from the model's distribution."""
    assert model.mtbf is not None
    if model.distribution == "weibull":
        # scale chosen so the mean equals mtbf: mean = scale * Γ(1 + 1/k)
        import math

        scale = model.mtbf / math.gamma(1.0 + 1.0 / model.weibull_shape)
        return rng.weibullvariate(scale, model.weibull_shape)
    return rng.expovariate(1.0 / model.mtbf)


def _node_down_intervals(
    model: FaultModel, node: int, *, start: float
) -> list[tuple[float, float]]:
    """Per-node renewal process: [down_start, down_end) intervals.

    Seeded on ``(model.seed, node)`` so the draw for node *i* never
    depends on other nodes existing — adding a node to the cluster does
    not perturb anyone else's failure history.
    """
    rng = random.Random(f"{model.seed}:node:{node}")
    intervals: list[tuple[float, float]] = []
    t = start
    while True:
        t_fail = t + _sample_tbf(rng, model)
        if t_fail >= start + model.horizon:
            break
        repair = rng.expovariate(1.0 / model.mttr)
        intervals.append((t_fail, t_fail + repair))
        t = t_fail + repair
    return intervals


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union overlapping/touching [start, end) intervals."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def generate_failure_trace(
    model: FaultModel, node_indices: Sequence[int], *, start: float = 0.0
) -> list[FaultEvent]:
    """Generate the full, ordered failure trace for a cluster.

    Returns events sorted by ``(time, node, kind)``; recoveries may land
    past ``model.horizon`` (every failure is paired with a recovery) but
    no new failure starts there.  Same model + node set ⇒ byte-identical
    trace.
    """
    if not model.node_failures_enabled:
        return []
    nodes = sorted(node_indices)
    down: dict[int, list[tuple[float, float]]] = {
        n: _node_down_intervals(model, n, start=start) for n in nodes
    }
    if model.burst_probability > 0.0 and len(nodes) > 1:
        # correlated bursts: walk base failures in global order; a triggered
        # burst adds down-intervals for the next nodes in ring order.  The
        # burst RNG is separate from the per-node RNGs so enabling bursts
        # only *adds* intervals, never perturbs the base draws.
        burst_rng = random.Random(f"{model.seed}:burst")
        base_failures = sorted(
            (lo, n) for n, ivals in down.items() for lo, _hi in ivals
        )
        pos = {n: i for i, n in enumerate(nodes)}
        for t_fail, n in base_failures:
            if burst_rng.random() >= model.burst_probability:
                continue
            for step in range(1, model.burst_size):
                victim = nodes[(pos[n] + step) % len(nodes)]
                if victim == n:
                    break
                repair = burst_rng.expovariate(1.0 / model.mttr)
                down[victim].append((t_fail, t_fail + repair))
    events: list[FaultEvent] = []
    for n in nodes:
        for lo, hi in _merge_intervals(down[n]):
            events.append(FaultEvent(time=lo, kind=FAIL, node=n))
            events.append(FaultEvent(time=hi, kind=RECOVER, node=n))
    events.sort(key=lambda e: (e.time, e.node, e.kind))
    return events
