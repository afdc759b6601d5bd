"""The telemetry facade: one object bundling registry, tracer and sampler.

``Telemetry`` is what users hand to :class:`~repro.system.BatchSystem`:

>>> from repro.obs import Telemetry
>>> from repro.system import BatchSystem
>>> tel = Telemetry(sample_interval=60.0)
>>> system = BatchSystem(4, 8, telemetry=tel)

Metrics that mirror a count the components already keep (the trace, a
``stats`` dict, a queue) are read out of them when the registry is read
and cost a run nothing, telemetry on or off
(:mod:`repro.obs.instruments`).  What is *measured* is still pushed — the
scheduler's two wall-clock sites, the busy-core integral below, and the
ledger / profiler / fairness / windows hooks: with no telemetry object
(the default) each of those is a ``None`` sentinel and its hook site a
single attribute-is-None check, benchmarked to stay within 5 % of the
uninstrumented scheduler hot path (``benchmarks/test_obs_overhead.py``).

Besides the three sub-systems, the facade maintains the **busy-core
integral**: every cluster claim/release reports the new busy count, and the
running integral of busy-cores over sim-time makes utilization computable
in O(1) at any moment — even when the event trace is a bounded ring that no
longer holds the start of the run.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import PeriodicSampler
from repro.obs.tracing import SpanTracer

__all__ = ["Telemetry", "DEFAULT_SAMPLE_INTERVAL"]

#: one sample per simulated minute — fine enough for ESP-scale workloads
DEFAULT_SAMPLE_INTERVAL = 60.0


class Telemetry:
    """Registry + span tracer + periodic sampler + busy-core accounting."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        sample_interval: float | None = DEFAULT_SAMPLE_INTERVAL,
        span_maxlen: int = 4096,
        decision_ledger: bool = False,
        profiling: bool = False,
        phase_trace_maxlen: int = 4096,
        windows=None,
        fold_and_discard: bool = False,
        fairness: bool = False,
        slo=None,
        share_targets: dict[str, float] | None = None,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(maxlen=span_maxlen)
        #: optional causal decision ledger (``decision_ledger=True``);
        #: BatchSystem attaches it to the trace, the scheduler records into it
        self.ledger = None
        if enabled and decision_ledger:
            from repro.obs.ledger import DecisionLedger

            self.ledger = DecisionLedger(registry=self.registry)
        #: optional phase profiler (``profiling=True``); BatchSystem hands it
        #: to the engine and scheduler, which keep a plain ``None`` sentinel
        #: otherwise — the same hook discipline as the ledger
        self.profiler = None
        if enabled and profiling:
            from repro.obs.perf import PhaseProfiler

            self.profiler = PhaseProfiler(
                registry=self.registry, trace_maxlen=phase_trace_maxlen
            )
        #: optional streaming windowed aggregates; pass a window width in
        #: sim-seconds or a pre-configured
        #: :class:`~repro.obs.windows.WindowedMetrics` instance
        self.windows = None
        if enabled and windows is not None:
            from repro.obs.windows import WindowedMetrics

            self.windows = (
                windows
                if isinstance(windows, WindowedMetrics)
                else WindowedMetrics(float(windows))
            )
        #: when True (requires ``windows``) the server drops each folded
        #: job from its indexes once fairshare accounting is done, so long
        #: replays hold O(windows) memory instead of O(jobs)
        self.fold_and_discard = bool(fold_and_discard)
        if self.fold_and_discard and self.windows is None:
            raise ValueError("fold_and_discard=True requires windows=")
        #: optional fairness observatory (``fairness=True`` or any ``slo=``);
        #: the scheduler keeps a plain ``None`` sentinel otherwise — the
        #: same hook discipline as the ledger and profiler
        self.fairness = None
        if enabled and (fairness or slo):
            from repro.obs.fairness import FairnessObservatory, principal_of

            self.fairness = FairnessObservatory(
                registry=self.registry, share_targets=share_targets
            )
            if self.windows is not None:
                if not self.windows.grouped:
                    self.windows.set_group_by(principal_of)
                self.fairness.attach_windows(self.windows)
        #: optional declarative SLO engine (``slo=["p99_wait < 4h", ...]``);
        #: evaluated at window-frame close, so windows are required
        self.slo = None
        if enabled and slo:
            if self.windows is None:
                raise ValueError("slo= requires windows=")
            from repro.obs.slo import SLOEngine

            self.slo = SLOEngine(
                slo, registry=self.registry, fairness=self.fairness
            )
            self.slo.attach_windows(self.windows)
        self.sample_interval = sample_interval
        self.sampler: PeriodicSampler | None = None
        self._pending_sources: dict[str, object] = {}
        # busy-core integral: sum of busy_cores * dt since attach
        self._busy_last_time = 0.0
        self._busy_last_value = 0
        self._busy_integral = 0.0

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A telemetry object that records nothing (explicit no-op)."""
        return cls(enabled=False, sample_interval=None)

    # ------------------------------------------------------------------
    # sampler lifecycle (wired by BatchSystem)
    # ------------------------------------------------------------------
    def ensure_sampler(self, engine) -> PeriodicSampler | None:
        """Create the periodic sampler (without arming it) on the engine.

        The sampler is armed later by :meth:`start_sampling` — typically at
        the top of ``BatchSystem.run()``, once the workload's events are in
        the queue; arming it on an empty engine would immediately stop it.
        """
        if not self.enabled or self.sample_interval is None:
            return None
        if self.sampler is None:
            self.sampler = PeriodicSampler(engine, self.sample_interval)
            for name, fn in self._pending_sources.items():
                self.sampler.add_source(name, fn)
        return self.sampler

    def start_sampling(self) -> None:
        """Arm the sampler (idempotent; no-op when sampling is off)."""
        if self.sampler is not None:
            self.sampler.start()

    def add_source(self, name: str, fn) -> None:
        """Register a sampled time-series source (no-op when disabled)."""
        if not self.enabled or self.sample_interval is None:
            return
        self._pending_sources[name] = fn
        if self.sampler is not None:
            self.sampler.add_source(name, fn)

    @property
    def series(self) -> dict[str, list[tuple[float, float]]]:
        """All sampled time series (empty when sampling is off)."""
        return self.sampler.series if self.sampler is not None else {}

    # ------------------------------------------------------------------
    # busy-core integral (fed by the cluster's claim/release hook)
    # ------------------------------------------------------------------
    def reset_busy_clock(self, now: float, busy: int) -> None:
        """(Re)anchor the integral; called when the cluster attaches."""
        self._busy_last_time = float(now)
        self._busy_last_value = int(busy)
        self._busy_integral = 0.0
        if self.windows is not None:
            self.windows.reset_busy(now, busy)

    def on_busy_change(self, now: float, busy: int) -> None:
        """The number of busy cores changed at sim-time ``now``."""
        self._busy_integral += self._busy_last_value * (now - self._busy_last_time)
        self._busy_last_time = now
        self._busy_last_value = busy
        if self.windows is not None:
            self.windows.on_busy_change(now, busy)

    def busy_core_seconds(self, upto: float | None = None) -> float:
        """Integral of busy cores over sim-time since attach.

        ``upto`` extends the integral to a later timestamp at the current
        busy level (typically ``engine.now`` at collection time).
        """
        total = self._busy_integral
        if upto is not None and upto > self._busy_last_time:
            total += self._busy_last_value * (upto - self._busy_last_time)
        return total

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Telemetry {state} registry={len(self.registry)} {self.tracer!r}>"
