"""The telemetry facade: one object bundling registry, sampler and hooks.

``Telemetry`` is what users hand to :class:`~repro.system.BatchSystem`;
telemetry off is ``telemetry=None`` (the default):

>>> from repro.obs import Telemetry
>>> from repro.system import BatchSystem
>>> tel = Telemetry(sample_interval=60.0)
>>> system = BatchSystem(4, 8, telemetry=tel)

Metrics that mirror a count the components already keep (the trace, a
``stats`` dict, a queue) are read out of them when the registry is read
and cost a run nothing, telemetry on or off
(:mod:`repro.obs.instruments`).  The optional instruments — ledger,
profiler, fairness observatory, SLO engine, windows — are fed through
hooks: with no telemetry object each is a ``None`` sentinel and its hook
site a single attribute-is-None check, benchmarked to stay within 5 % of
the uninstrumented scheduler hot path (``benchmarks/test_obs_overhead.py``).
Each keeps its own record, which the registry reads at collect time
(only the profiler pushes, its wall-clock histograms); none writes into
the trace, so a run's trace is the same with telemetry on or off.
Wall-clock time is read by the phase profiler alone (``profiling=True``),
so an export without it is a pure function of the seed.  Busy
core-seconds are not kept here: the server integrates them, telemetry on
or off (``Server.busy_at_last_end``).
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import PeriodicSampler

__all__ = ["Telemetry", "DEFAULT_SAMPLE_INTERVAL"]

#: one sample per simulated minute — fine enough for ESP-scale workloads
DEFAULT_SAMPLE_INTERVAL = 60.0


class Telemetry:
    """Registry + periodic sampler + optional hooks."""

    def __init__(
        self,
        *,
        sample_interval: float | None = DEFAULT_SAMPLE_INTERVAL,
        decision_ledger: bool = False,
        profiling: bool = False,
        phase_trace_maxlen: int = 4096,
        windows=None,
        fold_and_discard: bool = False,
        fairness: bool = False,
        slo=None,
        share_targets: dict[str, float] | None = None,
    ) -> None:
        self.registry = MetricsRegistry()
        #: optional causal decision ledger (``decision_ledger=True``);
        #: BatchSystem attaches it to the trace, the scheduler records into it
        self.ledger = None
        if decision_ledger:
            from repro.obs.ledger import DecisionLedger

            self.ledger = DecisionLedger(registry=self.registry)
        #: optional phase profiler (``profiling=True``); BatchSystem hands it
        #: to the engine and scheduler, which keep a plain ``None`` sentinel
        #: otherwise — the same hook discipline as the ledger
        self.profiler = None
        if profiling:
            from repro.obs.perf import PhaseProfiler

            self.profiler = PhaseProfiler(
                registry=self.registry, trace_maxlen=phase_trace_maxlen
            )
        #: optional streaming windowed aggregates; pass a window width in
        #: sim-seconds or a pre-configured
        #: :class:`~repro.obs.windows.WindowedMetrics` instance
        self.windows = None
        if windows is not None:
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
        if fairness or slo:
            from repro.obs.fairness import FairnessObservatory, principal_of

            self.fairness = FairnessObservatory(
                registry=self.registry, share_targets=share_targets
            )
            if self.windows is not None:
                if not self.windows.grouped:
                    self.windows.set_group_by(principal_of)
                self.fairness.attach_windows(self.windows)
        #: optional declarative SLO engine (``slo=["p99_wait < 4h", ...]``);
        #: evaluated at window-frame close, so windows are required; each
        #: breach goes to the ledger too (when on), so ``why`` explains it
        self.slo = None
        if slo:
            if self.windows is None:
                raise ValueError("slo= requires windows=")
            from repro.obs.slo import SLOEngine

            self.slo = SLOEngine(
                slo, registry=self.registry, fairness=self.fairness,
                ledger=self.ledger,
            )
            self.slo.attach_windows(self.windows)
        self.sample_interval = sample_interval
        self.sampler: PeriodicSampler | None = None
        self._pending_sources: dict[str, object] = {}

    # ------------------------------------------------------------------
    # sampler lifecycle (wired by BatchSystem)
    # ------------------------------------------------------------------
    def ensure_sampler(self, engine) -> PeriodicSampler | None:
        """Create the periodic sampler (without arming it) on the engine.

        The sampler is armed later by :meth:`start_sampling` — typically at
        the top of ``BatchSystem.run()``, once the workload's events are in
        the queue; arming it on an empty engine would immediately stop it.
        """
        if self.sample_interval is None:
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
        """Register a sampled time-series source (no-op when sampling is off)."""
        if self.sample_interval is None:
            return
        self._pending_sources[name] = fn
        if self.sampler is not None:
            self.sampler.add_source(name, fn)

    @property
    def series(self) -> dict[str, list[tuple[float, float]]]:
        """All sampled time series (empty when sampling is off)."""
        return self.sampler.series if self.sampler is not None else {}

    def on_busy_change(self, now: float, busy: int) -> None:
        """Show a busy-core count to the windows, when on.

        The server feeds its windows directly (``Server._cores_changed``);
        this entry point stays while ``bench/spans.py`` still names it.
        """
        if self.windows is not None:
            self.windows.on_busy_change(now, busy)

    def __repr__(self) -> str:
        return f"<Telemetry registry={len(self.registry)}>"
