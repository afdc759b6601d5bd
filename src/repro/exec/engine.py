"""The process-pool experiment engine: ordered, deterministic, observable.

Design
------
* **Determinism by construction.**  Workers never share state: each spec is
  simulated in its own process and only the returned value crosses the
  boundary.  Futures are submitted in spec order and results are merged by
  *submission index*, not completion order, so the output list is always
  ``[fn(spec) for spec in specs]`` — bit-identical to the serial loop no
  matter how the OS schedules workers.
* **Serial fallback.**  ``workers=1`` (the default everywhere) runs the same
  worker function in-process: no pool, no pickling, no forked interpreters.
  The parallel path therefore cannot drift from the serial path without a
  test catching it (``tests/test_exec_determinism.py``).
* **Progress through telemetry.**  When a :class:`~repro.obs.Telemetry` (or
  bare :class:`~repro.obs.registry.MetricsRegistry`) is supplied, the parent
  process maintains ``repro_exec_*`` gauges — total/completed/in-flight
  specs, elapsed wall seconds and an ETA extrapolated from the mean
  per-spec cost so far.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
import time
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["ExecProgress", "map_specs", "resolve_workers"]

log = logging.getLogger("repro.exec.engine")

S = TypeVar("S")
R = TypeVar("R")


def resolve_workers(jobs: int | None) -> int:
    """Normalise a ``--jobs``-style worker count.

    ``None`` means "not requested" and resolves to 1 (serial); ``0`` means
    "use every CPU this process may run on" (its affinity set where the
    platform has one, else ``os.cpu_count()``); anything below 1 otherwise
    is a caller error.
    """
    if jobs is None:
        return 1
    if jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"workers must be >= 1 (or 0 for all CPUs): {jobs}")
    return int(jobs)


class ExecProgress:
    """Parent-side progress/ETA instruments for one engine invocation.

    All updates happen in the submitting process as futures resolve, so the
    registry never needs cross-process synchronisation.  ``registry`` may be
    a :class:`~repro.obs.registry.MetricsRegistry` or anything exposing one
    as ``.registry`` (a :class:`~repro.obs.Telemetry` facade).
    """

    def __init__(self, registry, label: str, total: int, workers: int) -> None:
        registry = getattr(registry, "registry", registry)
        labels = {"label": label}
        self._total = registry.gauge(
            "repro_exec_specs_total", "run specs in this campaign", labels
        )
        self._completed = registry.gauge(
            "repro_exec_specs_completed", "run specs finished", labels
        )
        self._workers = registry.gauge(
            "repro_exec_workers", "worker processes (1 = in-process)", labels
        )
        self._elapsed = registry.gauge(
            "repro_exec_elapsed_seconds", "wall seconds since campaign start", labels
        )
        self._eta = registry.gauge(
            "repro_exec_eta_seconds", "estimated wall seconds to completion", labels
        )
        self._t0 = time.monotonic()
        self._total.set(total)
        self._completed.set(0)
        self._workers.set(workers)
        self._elapsed.set(0.0)
        self._eta.set(0.0)

    def advance(self) -> None:
        """One spec finished: refresh completed/elapsed/ETA."""
        done = self._completed.value + 1
        self._completed.set(done)
        elapsed = time.monotonic() - self._t0
        self._elapsed.set(elapsed)
        remaining = self._total.value - done
        self._eta.set((elapsed / done) * remaining if done else 0.0)

    @property
    def completed(self) -> int:
        return int(self._completed.value)


def map_specs(
    fn: Callable[[S], R],
    specs: Iterable[S],
    *,
    workers: int = 1,
    telemetry=None,
    label: str = "exec",
) -> list[R]:
    """``[fn(spec) for spec in specs]``, optionally across worker processes.

    ``fn`` must be a module-level callable, or a :func:`functools.partial`
    of one over picklable arguments, and each spec picklable when
    ``workers > 1``.  Spec *i* is always submitted *i*-th (deterministic
    seed→worker assignment under any fixed pool size) and results are merged
    back in submission order, so the returned list is independent of worker
    scheduling.  A worker exception propagates to the caller after the pool
    shuts down; remaining futures are cancelled where possible.

    When the pool cannot be created at all (restricted sandboxes without
    fork/spawn), the engine logs a warning and degrades to the serial path
    rather than failing the campaign.
    """
    spec_list: Sequence[S] = list(specs)
    workers = resolve_workers(workers)
    progress = (
        ExecProgress(telemetry, label, len(spec_list), workers)
        if telemetry is not None
        else None
    )
    # phase profiling: the serial path times each spec (exec_worker); the
    # parallel path only times the whole map (exec_map) — worker processes
    # cannot share the parent's profiler, and per-future wall time would
    # double-count overlapping workers anyway
    profiler = getattr(telemetry, "profiler", None)
    if workers == 1 or len(spec_list) <= 1:
        return _run_serial(fn, spec_list, progress, profiler)
    if profiler is not None:
        profiler.begin("exec_map")
    try:
        return _run_pool(fn, spec_list, progress, workers, telemetry, label)
    finally:
        if profiler is not None:
            profiler.end()


def _run_pool(fn, spec_list, progress, workers, telemetry, label) -> list:
    try:
        executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    except (OSError, PermissionError) as exc:  # pragma: no cover - env specific
        log.warning("process pool unavailable (%s); falling back to serial", exc)
        return _run_serial(fn, spec_list, progress)
    try:
        with executor:
            futures = [executor.submit(fn, spec) for spec in spec_list]
            results: list[R] = [None] * len(futures)  # type: ignore[list-item]
            # as_completed drives progress; the ordered merge reads by index
            for future in concurrent.futures.as_completed(futures):
                future.result()  # re-raise worker failures promptly
                if progress is not None:
                    progress.advance()
            for i, future in enumerate(futures):
                results[i] = future.result()
            return results
    except concurrent.futures.BrokenExecutor:  # pragma: no cover - env specific
        log.warning("worker pool broke mid-campaign; rerunning serially")
        if telemetry is not None:
            progress = ExecProgress(telemetry, label, len(spec_list), 1)
        return _run_serial(fn, spec_list, progress)


def _run_serial(fn, spec_list, progress, profiler=None) -> list:
    results = []
    if profiler is not None:
        profiler.begin("exec_map")
    try:
        for spec in spec_list:
            if profiler is not None:
                profiler.begin("exec_worker")
            try:
                results.append(fn(spec))
            finally:
                if profiler is not None:
                    profiler.end()
            if progress is not None:
                progress.advance()
    finally:
        if profiler is not None:
            profiler.end()
    return results
