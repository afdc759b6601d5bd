"""Metrics and reporting: the quantities Table II and Figures 8-12 plot."""

from repro.metrics.collector import JobRecord, WorkloadMetrics
from repro.metrics.gantt import render_gantt
from repro.metrics.report import render_series, render_table
from repro.metrics.stats import describe, utilization_timeline
from repro.metrics.validate import validate_trace

__all__ = [
    "JobRecord",
    "WorkloadMetrics",
    "describe",
    "render_gantt",
    "render_series",
    "render_table",
    "utilization_timeline",
    "validate_trace",
]
