"""Periodic sim-time sampler: turns live gauges into time series.

The sampler is an ordinary simulation event: every ``interval`` sim-seconds
it evaluates its registered sources and appends ``(sim_time, value)`` points
to named series.  It runs at a priority *after* the scheduler so a sample at
time *t* observes the settled post-iteration state, and it only reschedules
itself while other events remain pending — otherwise the sampler itself
would keep the engine alive forever.

This replaces the old post-hoc reconstruction style (replaying the whole
trace to recover utilization curves) with telemetry recorded as the
simulation runs, which stays correct even when the trace is a bounded ring.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable

from repro.sim.engine import Engine

__all__ = ["PeriodicSampler", "PRIORITY_SAMPLER"]

#: samplers observe after every same-timestamp scheduler iteration
PRIORITY_SAMPLER = 11

SourceValue = float | Mapping[str, float]


class PeriodicSampler:
    """Samples named callables into ``series`` every ``interval`` sim-seconds.

    A source may return a float (one series under its own name) or a mapping
    (one series per key, stored as ``name{key}`` — used for per-user DFS
    ledger levels).
    """

    def __init__(self, engine: Engine, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive: {interval}")
        self.engine = engine
        self.interval = float(interval)
        self._sources: dict[str, Callable[[], SourceValue]] = {}
        self.series: dict[str, list[tuple[float, float]]] = {}
        self.samples_taken = 0
        self._handle = None

    # ------------------------------------------------------------------
    def add_source(self, name: str, fn: Callable[[], SourceValue]) -> None:
        """Register (or replace) a sampled quantity."""
        self._sources[name] = fn

    def start(self) -> None:
        """(Re)arm sampling; takes an immediate t=now baseline sample.

        Idempotent while armed.  The sampler disarms itself when the event
        queue drains (see :meth:`_tick`); calling ``start`` again — e.g. at
        the next ``run()`` after more submissions — resumes it.
        """
        if self._handle is not None:
            return
        self._tick()

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    def sample_now(self) -> None:
        """Record one sample of every source at the current sim time."""
        now = self.engine.now
        for name, fn in self._sources.items():
            value = fn()
            if isinstance(value, Mapping):
                for key, v in value.items():
                    self.series.setdefault(f"{name}{{{key}}}", []).append(
                        (now, float(v))
                    )
            else:
                self.series.setdefault(name, []).append((now, float(value)))
        self.samples_taken += 1

    def _tick(self) -> None:
        self._handle = None
        self.sample_now()
        # reschedule only while the simulation still has work: a sampler
        # that unconditionally re-arms would make Engine.run() never drain
        if self.engine.pending > 0:
            self._handle = self.engine.after(
                self.interval, self._tick, priority=PRIORITY_SAMPLER
            )

    def __repr__(self) -> str:
        return (
            f"<PeriodicSampler interval={self.interval:.0f}s "
            f"series={len(self.series)} samples={self.samples_taken}>"
        )
