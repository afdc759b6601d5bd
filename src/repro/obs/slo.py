"""Declarative SLO engine: windowed objectives with causal breach events.

Objectives are declared as plain strings per run::

    p99_wait < 4h
    mean_slowdown <= 3
    utilization >= 0.5
    jain >= 0.9
    share_error < 0.1

and evaluated as each :class:`~repro.obs.windows.WindowFrame` closes
(via ``WindowedMetrics.on_frame_close``).  A failing objective appends a
breach record to :attr:`SLOEngine.breaches` and — when the decision
ledger is on — a ``slo_breach`` decision anchored to the window's
worst-wait job, so ``why`` explains a breach through the same causal
chain that explains a wait.  Nothing is written into the trace, and the
registry counters read the engine's own tallies when the registry is
read.

Metric vocabulary (per closed window):

========================= ====================================================
``pNN_wait``              exact wait quantile (NN must be a configured quantile)
``mean_wait``/``max_wait`` streaming wait stats [s]
``pNN_slowdown``          exact bounded-slowdown quantile
``mean_slowdown``         mean bounded slowdown
``utilization``           busy core-seconds over installed capacity
``mean_queue_depth``      time-weighted queue depth
``max_queue_depth``       peak queue depth
``jain``                  Jain's index from the fairness observatory
``share_error``           max |share - target| from the fairness observatory
========================= ====================================================

Thresholds take an optional duration suffix (``s``/``m``/``h``);
``4h`` is 14400 seconds.  Windows with no signal for a metric (no job
finished, fairness not yet sampled) are skipped, not breached.

Contract: off by default — ``Telemetry(slo=[...])`` opts in (requires
``windows=``); evaluation happens at frame close, never on the scheduler
hot path, and an instrumented run stays bit-identical to a disabled one
on ``(submit, start, end, state)``.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import IO

__all__ = ["SLObjective", "SLOEngine", "parse_slo"]

_DURATION = {"s": 1.0, "m": 60.0, "h": 3600.0}

_OBJECTIVE_RE = re.compile(
    r"^\s*([a-z_][a-z0-9_]*)\s*(<=|>=|<|>)\s*"
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([smh]?)\s*$"
)

_QUANTILE_RE = re.compile(r"^p(\d{2})_(wait|slowdown)$")

_SCALAR_METRICS = frozenset(
    {
        "mean_wait",
        "max_wait",
        "mean_slowdown",
        "utilization",
        "mean_queue_depth",
        "max_queue_depth",
        "jain",
        "share_error",
    }
)

#: metrics read from the fairness observatory, not the window frame
_FAIRNESS_METRICS = frozenset({"jain", "share_error"})


@dataclass(frozen=True, slots=True)
class SLObjective:
    """One parsed objective: ``metric op threshold`` in base units."""

    text: str
    metric: str
    op: str
    threshold: float
    #: quantile in (0, 1) for ``pNN_*`` metrics, else None
    quantile: float | None = None

    def holds(self, value: float) -> bool:
        if self.op == "<":
            return value < self.threshold
        if self.op == "<=":
            return value <= self.threshold
        if self.op == ">":
            return value > self.threshold
        return value >= self.threshold


def parse_slo(text: str) -> SLObjective:
    """Parse ``"p99_wait < 4h"``-style declarations; raises ValueError."""
    match = _OBJECTIVE_RE.match(text)
    if match is None:
        raise ValueError(
            f"cannot parse SLO {text!r}: expected 'metric op threshold[s|m|h]'"
        )
    metric, op, number, unit = match.groups()
    threshold = float(number) * (_DURATION[unit] if unit else 1.0)
    quantile = None
    qmatch = _QUANTILE_RE.match(metric)
    if qmatch is not None:
        quantile = int(qmatch.group(1)) / 100.0
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"SLO quantile must be in (0, 1): {text!r}")
    elif metric not in _SCALAR_METRICS:
        known = ", ".join(sorted(_SCALAR_METRICS | {"pNN_wait", "pNN_slowdown"}))
        raise ValueError(f"unknown SLO metric {metric!r} in {text!r}; one of: {known}")
    return SLObjective(
        text=" ".join(match.groups()[:3]) + (unit or ""),
        metric=metric,
        op=op,
        threshold=threshold,
        quantile=quantile,
    )


class _ObjectiveState:
    """Per-objective running tally (evaluations, breaches, worst value)."""

    __slots__ = ("objective", "evaluations", "breaches", "worst_value")

    def __init__(self, objective: SLObjective) -> None:
        self.objective = objective
        self.evaluations = 0
        self.breaches = 0
        self.worst_value: float | None = None

    def observe(self, value: float) -> None:
        self.evaluations += 1
        worst = self.worst_value
        # "worst" is the value closest to (or furthest past) the bound:
        # max for upper-bound objectives, min for lower-bound ones
        if self.objective.op in ("<", "<="):
            if worst is None or value > worst:
                self.worst_value = value
        else:
            if worst is None or value < worst:
                self.worst_value = value


class SLOEngine:
    """Evaluates declared objectives as window frames close."""

    def __init__(
        self,
        objectives,
        *,
        registry=None,
        fairness=None,
        ledger=None,
    ) -> None:
        parsed = [
            obj if isinstance(obj, SLObjective) else parse_slo(obj)
            for obj in objectives
        ]
        if not parsed:
            raise ValueError("SLO engine needs at least one objective")
        self.objectives = parsed
        self._states = [_ObjectiveState(obj) for obj in parsed]
        self.fairness = fairness
        #: the decision ledger (when on) records each breach as a decision
        self._ledger = ledger
        self.breaches: list[dict] = []
        self._windows = None
        self._evaluated: set[int] = set()
        if registry is not None:
            self._expose(registry)

    def _expose(self, registry) -> None:
        """Read the per-objective tallies into ``registry`` at collect time."""
        evaluations = registry.counter(
            "repro_slo_evaluations_total",
            "SLO objective evaluations over closed windows",
        )

        def refresh() -> None:
            evaluations.set_total(sum(state.evaluations for state in self._states))
            for text, count in Counter(b["objective"] for b in self.breaches).items():
                registry.counter(
                    "repro_slo_breaches_total",
                    "SLO breaches per objective",
                    labels={"objective": text},
                ).set_total(count)

        registry.on_collect(refresh)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_windows(self, windows) -> None:
        """Hook frame-close evaluation into a WindowedMetrics instance."""
        for obj in self.objectives:
            if obj.quantile is not None and obj.quantile not in windows.quantiles:
                configured = ", ".join(f"{q:g}" for q in windows.quantiles)
                raise ValueError(
                    f"SLO {obj.text!r} needs quantile {obj.quantile:g} but the "
                    f"windows only compute: {configured}"
                )
        self._windows = windows
        windows.on_frame_close = self._on_frame_close

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _frame_value(self, obj: SLObjective, frame) -> float | None:
        """The objective's metric for one frame; None when no signal."""
        metric = obj.metric
        if obj.quantile is not None:
            sample = frame.wait if metric.endswith("_wait") else frame.slowdown
            value = sample.quantiles(frame.quantiles)[obj.quantile]
            return None if math.isnan(value) else value
        if metric == "mean_wait":
            return frame.wait.mean if frame.wait.count else None
        if metric == "max_wait":
            return frame.wait.max if frame.wait.count else None
        if metric == "mean_slowdown":
            return frame.slowdown.mean if frame.slowdown.count else None
        if metric == "utilization":
            total_cores = self._windows.total_cores if self._windows else None
            if not total_cores:
                return None
            width = frame.end - frame.start
            return frame.busy_core_seconds / (total_cores * width)
        if metric == "mean_queue_depth":
            width = frame.end - frame.start
            return frame.depth_integral / width if width else None
        if metric == "max_queue_depth":
            return float(frame.depth_max)
        # fairness metrics: latest observatory sample at frame close
        latest = self.fairness.latest if self.fairness is not None else None
        if latest is None:
            return None
        if metric == "jain":
            return latest["jain"]
        return latest["max_share_error"]

    def _on_frame_close(self, frame) -> None:
        if frame.index in self._evaluated:
            return
        self._evaluated.add(frame.index)
        for state in self._states:
            obj = state.objective
            value = self._frame_value(obj, frame)
            if value is None:
                continue
            state.observe(value)
            if obj.holds(value):
                continue
            state.breaches += 1
            job_id = job_user = job_submit = None
            if obj.metric not in _FAIRNESS_METRICS:
                job_id = frame.worst_wait_job
                job_user = frame.worst_wait_user
                job_submit = frame.worst_wait_submit
            breach = {
                "seq": len(self.breaches) + 1,
                "objective": obj.text,
                "metric": obj.metric,
                "op": obj.op,
                "threshold": obj.threshold,
                "value": value,
                "window": frame.index,
                "start": frame.start,
                "end": frame.end,
                "job_id": job_id,
                "job_user": job_user,
                "job_submit": job_submit,
            }
            self.breaches.append(breach)
            if self._ledger is not None:
                self._ledger.note_slo_breach(
                    frame.end,
                    job_id,
                    {
                        "objective": obj.text,
                        "metric": obj.metric,
                        "op": obj.op,
                        "threshold": obj.threshold,
                        "value": value,
                        "window": frame.index,
                        "window_start": frame.start,
                        "window_end": frame.end,
                    },
                )

    def finalize(self, now: float | None = None) -> None:
        """Evaluate still-open frames at run end (idempotent).

        Partial trailing windows carry real jobs; leaving them
        unevaluated would hide breaches in the last ``width`` seconds of
        every run.
        """
        if self._windows is None:
            return
        if self.fairness is not None and now is not None:
            self.fairness.finalize(now)
        for frame in sorted(self._windows._open.values(), key=lambda f: f.index):
            self._on_frame_close(frame)

    # ------------------------------------------------------------------
    # queries & export
    # ------------------------------------------------------------------
    def summary(self) -> list[dict]:
        """Per-objective tallies in declared order."""
        return [
            {
                "objective": state.objective.text,
                "metric": state.objective.metric,
                "op": state.objective.op,
                "threshold": state.objective.threshold,
                "evaluations": state.evaluations,
                "breaches": state.breaches,
                "worst_value": state.worst_value,
                "ok": state.breaches == 0,
            }
            for state in self._states
        ]

    def export_jsonl(self, fp: IO[str]) -> int:
        """Dump meta + per-objective summaries + breaches (deterministic)."""
        lines = [
            {
                "kind": "meta",
                "schema": "repro-slo/1",
                "objectives": [obj.text for obj in self.objectives],
            }
        ]
        lines.extend({"kind": "objective", **row} for row in self.summary())
        # the raw job id is a process-global counter value (varies with
        # worker layout); the exported anchor is the deterministic
        # (job_user, job_submit) pair, which is what makes the file
        # byte-identical per seed across serial and -j N runs
        lines.extend(
            {"kind": "breach", **{k: v for k, v in breach.items() if k != "job_id"}}
            for breach in self.breaches
        )
        for line in lines:
            fp.write(json.dumps(line, separators=(",", ":")) + "\n")
        return len(lines)

    def __repr__(self) -> str:
        return (
            f"<SLOEngine objectives={len(self.objectives)} "
            f"breaches={len(self.breaches)}>"
        )
