"""Seed sweeps: statistical robustness for the Table II comparison.

The paper evaluates a single run per configuration; the exact ESP job order
is unpublished, so this reproduction's default seed is one draw from the
order distribution.  :func:`run_seed_sweep` replays every configuration over
many seeds and reports mean ± stdev per metric, plus how often each of the
paper's qualitative orderings holds — the honest way to state which results
are order-robust and which are single-run artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.experiments.configs import ESPConfiguration, all_configurations
from repro.experiments.runner import run_esp_configuration
from repro.metrics.report import render_table

__all__ = ["SweepResult", "run_seed_sweep", "render_sweep"]


@dataclass
class SweepResult:
    """Per-configuration samples across seeds."""

    seeds: list[int]
    #: config name -> list of per-seed metric dicts
    samples: dict[str, list[dict]] = field(default_factory=dict)

    def stats(self, config: str, metric: str) -> tuple[float, float]:
        values = np.array([s[metric] for s in self.samples[config]], dtype=float)
        return float(values.mean()), float(values.std())

    def ordering_holds(self, metric: str, better: str, worse: str, *, larger_is_better: bool) -> float:
        """Fraction of seeds where ``better`` beats ``worse`` on ``metric``."""
        wins = 0
        for sample_b, sample_w in zip(self.samples[better], self.samples[worse]):
            if larger_is_better:
                wins += sample_b[metric] > sample_w[metric]
            else:
                wins += sample_b[metric] < sample_w[metric]
        return wins / len(self.seeds)


def run_seed_sweep(
    seeds: list[int] | None = None,
    *,
    trace_maxlen: int | None = None,
    workers: int = 1,
    telemetry=None,
) -> SweepResult:
    """All four configurations over the given seeds (default: 8 seeds).

    ``trace_maxlen`` bounds each run's event trace to a ring of that many
    events (default: unbounded, the historical behaviour); utilization is
    exact either way, read from the server's busy-core integral.

    ``workers`` fans the (configuration, seed) grid out over worker
    processes through :func:`repro.exec.map_specs`; results come back in
    grid order, so the :class:`SweepResult` is bit-identical to a serial
    run.  ``telemetry`` (parent-side) surfaces sweep progress/ETA gauges.
    """
    from repro.exec import map_specs

    if seeds is None:
        seeds = [1, 2, 3, 7, 42, 99, 1234, 2014]
    configurations = all_configurations()
    rows = map_specs(
        partial(_sweep_row, trace_maxlen=trace_maxlen),
        [(configuration, seed) for configuration in configurations for seed in seeds],
        workers=workers,
        telemetry=telemetry,
        label="sweep",
    )
    result = SweepResult(seeds=list(seeds))
    for i, configuration in enumerate(configurations):
        result.samples[configuration.name] = rows[i * len(seeds) : (i + 1) * len(seeds)]
    return result


def _sweep_row(cell: tuple[ESPConfiguration, int], *, trace_maxlen: int | None) -> dict:
    """Simulate one (configuration, seed) cell and return its metric row."""
    configuration, seed = cell
    m = run_esp_configuration(configuration, seed=seed, trace_maxlen=trace_maxlen).metrics
    return {
        "time_min": m.workload_time_minutes,
        "satisfied": m.satisfied_dyn_jobs,
        "util_pct": 100.0 * m.utilization,
        "throughput": m.throughput_jobs_per_minute,
        "mean_wait": m.mean_wait,
    }


def render_sweep(result: SweepResult) -> str:
    headers = ["Config", "Time[min]", "Satisfied", "Util[%]", "TP[jobs/min]"]
    body = []
    for name in result.samples:
        cells = [name]
        for metric in ("time_min", "satisfied", "util_pct", "throughput"):
            mean, std = result.stats(name, metric)
            cells.append(f"{mean:.2f} ± {std:.2f}")
        body.append(cells)
    table = render_table(
        headers, body, title=f"Table II over {len(result.seeds)} workload orders (mean ± std)"
    )
    checks = [
        ("Dyn-HP faster than Static", "time_min", "Dyn-HP", "Static", False),
        ("Dyn-500 faster than Static", "time_min", "Dyn-500", "Static", False),
        ("Dyn-600 faster than Static", "time_min", "Dyn-600", "Static", False),
        ("Dyn-HP higher util than Static", "util_pct", "Dyn-HP", "Static", True),
        ("Dyn-600 higher util than Dyn-500", "util_pct", "Dyn-600", "Dyn-500", True),
        ("Dyn-HP higher util than Dyn-600", "util_pct", "Dyn-HP", "Dyn-600", True),
    ]
    lines = [table, "", "ordering robustness (fraction of seeds where it holds):"]
    for label, metric, better, worse, larger in checks:
        frac = result.ordering_holds(metric, better, worse, larger_is_better=larger)
        lines.append(f"  {label:<36} {frac:.0%}")
    return "\n".join(lines)
