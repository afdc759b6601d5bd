"""Observability layer: live metrics, phase profiling, streaming trace pipeline.

The paper's whole evaluation is observations of scheduler behaviour; this
package makes those observations *live* instead of post-mortem:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  histograms; those that mirror a count the server, scheduler or cluster
  keeps are read out of it at collect time (:mod:`~repro.obs.instruments`);
* :class:`~repro.obs.sampler.PeriodicSampler` — sim-time-driven time series
  (utilization, queue depth, DFS ledger levels);
* :class:`~repro.obs.perf.PhaseProfiler` — the one telemetry instrument
  that reads the wall clock: where a scheduler iteration spends it, and
  the cost of serving each dynamic request (live Fig. 12 data;
  ``Telemetry(profiling=True)``);
* :class:`~repro.obs.windows.WindowedMetrics` — bounded-memory streaming
  aggregates over time windows with exact percentiles
  (``Telemetry(windows=...)``);
* :class:`~repro.obs.fairness.FairnessObservatory` — per-account share
  trajectories, Jain's index and share-error tracking fed by the
  scheduler's fairshare accounting (``Telemetry(fairness=True)``);
* :class:`~repro.obs.slo.SLOEngine` — declarative per-run objectives
  (``p99_wait < 4h``, ``jain >= 0.9``) evaluated as window frames close,
  breaching into the trace and decision ledger (``Telemetry(slo=[...])``);
* :mod:`~repro.obs.clock` — the single wall-clock shim every instrument
  reads, freezable in tests;
* :mod:`~repro.obs.exporters` — JSONL trace streaming and the Prometheus
  text exposition format;
* :class:`~repro.obs.telemetry.Telemetry` — the facade bundling the above,
  passed to :class:`~repro.system.BatchSystem`.

See ``docs/OBSERVABILITY.md`` for the instrument catalogue and formats.
"""

from repro.obs.exporters import (
    JsonlTraceWriter,
    export_jsonl,
    iter_jsonl,
    read_jsonl,
    to_prometheus_text,
)
from repro.obs.fairness import FairnessObservatory, jain_index, principal_of
from repro.obs.ledger import Decision, DecisionKind, DecisionLedger
from repro.obs.perf import PhaseProfiler
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sampler import PeriodicSampler
from repro.obs.slo import SLObjective, SLOEngine, parse_slo
from repro.obs.telemetry import DEFAULT_SAMPLE_INTERVAL, Telemetry
from repro.obs.windows import GroupStats, WindowedMetrics

__all__ = [
    "Counter",
    "Decision",
    "DecisionKind",
    "DecisionLedger",
    "FairnessObservatory",
    "Gauge",
    "GroupStats",
    "Histogram",
    "MetricsRegistry",
    "PeriodicSampler",
    "PhaseProfiler",
    "SLOEngine",
    "SLObjective",
    "Telemetry",
    "WindowedMetrics",
    "jain_index",
    "parse_slo",
    "principal_of",
    "DEFAULT_SAMPLE_INTERVAL",
    "JsonlTraceWriter",
    "export_jsonl",
    "iter_jsonl",
    "read_jsonl",
    "to_prometheus_text",
]
