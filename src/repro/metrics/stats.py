"""Statistical helpers over traces and job records."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.events import EventKind, TraceLog

__all__ = ["describe", "utilization_timeline", "busy_core_seconds"]

#: events that change the number of busy cores, with their sign
_CORE_DELTA_KINDS = {
    EventKind.JOB_START: +1,
    EventKind.BACKFILL_START: +1,
    EventKind.DYN_GRANT: +1,
    EventKind.DYN_RELEASE: -1,
    EventKind.JOB_END: -1,
    EventKind.JOB_ABORT: -1,
    EventKind.PREEMPT: -1,
}


def utilization_timeline(trace: TraceLog) -> tuple[np.ndarray, np.ndarray]:
    """Busy cores as a step function ``(times, busy_cores)`` from the trace.

    ``busy[i]`` holds on ``[times[i], times[i+1])``; the last value holds to
    the end of the trace.  Raises ``ValueError`` if the trace implies a
    negative busy count — that would mean the event log is inconsistent.
    """
    points: list[tuple[float, int]] = []
    for event in trace:
        sign = _CORE_DELTA_KINDS.get(event.kind)
        if sign is None:
            continue
        cores = event.payload.get("cores", 0)
        if cores:
            points.append((event.time, sign * cores))
    if not points:
        return np.array([0.0]), np.array([0])
    times: list[float] = []
    busy: list[int] = []
    current = 0
    for t, delta in points:  # trace is already time-ordered
        current += delta
        if current < 0:
            raise ValueError(f"negative busy-core count at t={t}")
        if times and times[-1] == t:
            busy[-1] = current
        else:
            times.append(t)
            busy.append(current)
    return np.asarray(times), np.asarray(busy)


def busy_core_seconds(trace: TraceLog, start: float, end: float) -> float:
    """Integral of busy cores over ``[start, end]``."""
    if end <= start:
        return 0.0
    times, busy = utilization_timeline(trace)
    total = 0.0
    for i, t in enumerate(times):
        seg_start = max(t, start)
        seg_end = end if i + 1 == len(times) else min(times[i + 1], end)
        if seg_end > seg_start:
            total += float(busy[i]) * (seg_end - seg_start)
    return total


def describe(values: Sequence[float]) -> dict[str, float]:
    """Summary statistics used by the reports (empty-safe)."""
    if not len(values):
        return {"count": 0, "mean": 0.0, "median": 0.0, "p90": 0.0, "max": 0.0}
    arr = np.asarray(values, dtype=float)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "p90": float(np.percentile(arr, 90)),
        "max": float(arr.max()),
    }
