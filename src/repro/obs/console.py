"""Terminal renderers for live-style telemetry views.

Used by the ``repro.cli trace`` / ``timeline`` / ``metrics`` / ``ledger`` /
``why`` subcommands: an event tail (the last N trace events), a unicode
sparkline over a sampled time series (utilization timeline), a
per-principal DFS ledger table, and the decision-ledger views (verdict
tail/summary, per-job wait attribution, causal chains).  Pure functions
over telemetry data — no I/O, golden-output-testable.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.sim.events import TraceEvent, TraceLog

__all__ = [
    "render_event_tail",
    "sparkline",
    "render_series_sparkline",
    "render_ledger_table",
    "render_decision_summary",
    "render_decision_tail",
    "render_attribution",
    "render_causal_chain",
    "render_phase_tree",
    "render_window_table",
    "render_window_percentiles",
    "render_fairness_table",
    "render_group_table",
    "render_slo_summary",
    "render_breach_tail",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def render_event_tail(trace: TraceLog, n: int = 20) -> str:
    """The newest ``n`` events, one per line, with drop accounting."""
    lines: list[str] = []
    shown: Sequence[TraceEvent] = trace.tail(n)
    hidden = trace.total_recorded - len(shown)
    if hidden > 0:
        dropped_note = f", {trace.dropped} dropped by ring buffer" if trace.dropped else ""
        lines.append(f"... {hidden} earlier events not shown{dropped_note} ...")
    for event in shown:
        payload = ", ".join(f"{k}={v}" for k, v in sorted(event.payload.items()))
        lines.append(f"t={event.time:>12.2f}  {event.kind.value:<24} {payload}")
    if not shown:
        lines.append("(no events recorded)")
    return "\n".join(lines)


def sparkline(values: Sequence[float], *, lo: float | None = None, hi: float | None = None) -> str:
    """Map values onto ▁..█; empty input renders as an empty string."""
    if not len(values):
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo
    chars = []
    for v in values:
        if span <= 0:
            idx = 0
        else:
            idx = int((v - lo) / span * (len(_SPARK_CHARS) - 1) + 0.5)
        chars.append(_SPARK_CHARS[max(0, min(idx, len(_SPARK_CHARS) - 1))])
    return "".join(chars)


def _downsample(values: Sequence[float], width: int) -> list[float]:
    """Bucket-mean downsampling to at most ``width`` points."""
    if len(values) <= width:
        return list(values)
    out = []
    for i in range(width):
        start = i * len(values) // width
        end = max(start + 1, (i + 1) * len(values) // width)
        bucket = values[start:end]
        out.append(sum(bucket) / len(bucket))
    return out


def render_series_sparkline(
    name: str,
    series: Sequence[tuple[float, float]],
    *,
    width: int = 72,
    lo: float | None = None,
    hi: float | None = None,
) -> str:
    """A labelled sparkline over a sampled ``(time, value)`` series."""
    if not series:
        return f"{name}: (no samples)"
    values = [v for _, v in series]
    shown = _downsample(values, width)
    t0, t1 = series[0][0], series[-1][0]
    vlo = min(values) if lo is None else lo
    vhi = max(values) if hi is None else hi
    return (
        f"{name}  t=[{t0:.0f}s .. {t1:.0f}s]  "
        f"min={min(values):.2f} max={max(values):.2f} last={values[-1]:.2f}\n"
        f"  [{sparkline(shown, lo=vlo, hi=vhi)}]"
    )


def _decision_line(decision: Mapping) -> str:
    """One decision as a fixed-prefix line; payload keys in sorted order."""
    payload = decision.get("payload", {})
    parts = []
    for key in sorted(payload):
        value = payload[key]
        if key in ("victims", "would_delay"):
            value = f"[{len(value)}]"
        elif isinstance(value, float):
            value = f"{value:.1f}"
        parts.append(f"{key}={value}")
    return (
        f"#{decision['seq']:<5} t={decision['t']:>10.1f}  "
        f"{decision['kind']:<18} {decision['job_id'] or '-':<12} "
        + " ".join(parts)
    )


def render_decision_summary(ledger) -> str:
    """Decision counts per kind plus the grant/delay totals."""
    counts = ledger.summary()
    lines = [f"decision ledger: {len(ledger)} decisions"]
    for kind in sorted(counts):
        lines.append(f"  {kind:<20} {counts[kind]:>6}")
    grants = ledger.grants()
    if grants:
        total = sum(d.payload.get("total_delay", 0.0) for d in grants)
        displaced = sum(len(d.payload.get("displaced_rigid", [])) for d in grants)
        lines.append(
            f"  {len(grants)} grants inflicted {total:.1f}s of planned delay "
            f"on {displaced} rigid-job placements"
        )
    return "\n".join(lines)


def render_decision_tail(ledger, n: int = 20) -> str:
    """The newest ``n`` decisions, one per line."""
    decisions = list(ledger)[-n:]
    hidden = len(ledger) - len(decisions)
    lines = [f"... {hidden} earlier decisions not shown ..."] if hidden else []
    for decision in decisions:
        lines.append(_decision_line(decision.to_dict()))
    if not decisions:
        lines.append("(no decisions recorded)")
    return "\n".join(lines)


def render_attribution(attribution: Mapping | None) -> str:
    """A job's wait decomposition as an indented component table.

    The component seconds (including every per-grant ``dyn_inflicted``
    charge) sum exactly to the displayed wait — that invariant is the whole
    point of the attribution engine, so the renderer shows the sum check.
    """
    if attribution is None:
        return "(no wait attribution recorded for this job)"
    lines = [
        f"{attribution['job_id']}: submitted t={attribution['submitted']:.1f}"
        + (
            f", started t={attribution['started']:.1f}"
            if attribution["started"] is not None
            else ", still queued"
        )
        + f", wait {attribution['wait']:.1f}s"
    ]
    components = attribution["components"]
    dyn = attribution["dyn_inflicted"]
    for name in sorted(components):
        lines.append(f"  {name:<24} {components[name]:>12.1f}s")
    for grant_id in dyn:
        label = f"dyn_inflicted[{grant_id}]"
        lines.append(f"  {label:<24} {dyn[grant_id]:>12.1f}s")
    total = sum(components.values()) + sum(dyn.values())
    lines.append(f"  {'= total':<24} {total:>12.1f}s")
    return "\n".join(lines)


def render_causal_chain(chain: Sequence[Mapping]) -> str:
    """Every decision causally involving a job, in decision order."""
    if not chain:
        return "(no decisions involve this job)"
    return "\n".join(_decision_line(d) for d in chain)


def _phase_tree_lines(
    tree: Mapping[str, Mapping],
    lines: list[str],
    depth: int,
    parent_total: float | None,
) -> None:
    order = sorted(tree, key=lambda k: -tree[k]["total_ms"])
    for name in order:
        node = tree[name]
        share = (
            f" {node['total_ms'] / parent_total:>5.1%}"
            if parent_total
            else "      "
        )
        label = "  " * depth + name
        mean_us = 1e3 * node["total_ms"] / node["count"] if node["count"] else 0.0
        lines.append(
            f"  {label:<34} {node['count']:>8} {node['total_ms']:>12.3f} "
            f"{node['self_ms']:>12.3f} {mean_us:>10.1f} "
            f"{1e3 * node['max_ms']:>10.1f}{share}"
        )
        if node["children"]:
            _phase_tree_lines(node["children"], lines, depth + 1, node["total_ms"])


def render_phase_tree(tree: Mapping[str, Mapping]) -> str:
    """The profiler's nested phase tree as an indented fixed-width table.

    One row per phase path: call count, inclusive wall time, self time
    (inclusive minus profiled children), mean and max inclusive time per
    call, and the share of the parent's inclusive time.  Children are
    sorted by inclusive time, so the hot path reads top-to-bottom.
    """
    lines = [
        f"  {'phase':<34} {'count':>8} {'total[ms]':>12} {'self[ms]':>12} "
        f"{'mean[us]':>10} {'max[us]':>10} share"
    ]
    if not tree:
        lines.append("  (no phases recorded)")
        return "\n".join(lines)
    _phase_tree_lines(dict(tree), lines, 0, None)
    return "\n".join(lines)


def _pct_cols(stat: Mapping) -> list[str]:
    cols = []
    for key in ("mean", "p50", "p90", "p99"):
        value = stat.get(key)
        cols.append("-" if value is None else f"{value:.1f}")
    return cols


def render_window_table(
    windows: Sequence[Mapping],
    *,
    title: str = "windowed aggregates",
) -> str:
    """One row per window: jobs, utilization, wait and slowdown stats."""
    lines = [
        title,
        f"  {'window':>6} {'t0':>10} {'t1':>10} {'jobs':>5} {'util':>6} "
        f"{'wait mean':>10} {'p90':>8} {'bsld mean':>10} {'p90':>8} {'depth':>6}",
    ]
    if not windows:
        lines.append("  (no windows materialised)")
        return "\n".join(lines)
    for w in windows:
        util = w.get("utilization")
        wait, bsld = w.get("wait", {}), w.get("bounded_slowdown", {})
        depth = w.get("queue_depth", {})
        lines.append(
            f"  {w['index']:>6} {w['start']:>10.0f} {w['end']:>10.0f} "
            f"{w['finished']:>5} "
            f"{('-' if util is None else f'{util:.1%}'):>6} "
            f"{(_pct_cols(wait)[0]):>10} {(_pct_cols(wait)[2]):>8} "
            f"{(_pct_cols(bsld)[0]):>10} {(_pct_cols(bsld)[2]):>8} "
            f"{depth.get('max', 0):>6}"
        )
    return "\n".join(lines)


def render_window_percentiles(totals: Mapping) -> str:
    """Whole-run percentile rows from a windows dump's ``totals`` record."""
    lines = [
        "whole-run streaming aggregates (P² sketches):",
        f"  {'metric':<18} {'mean':>10} {'p50':>10} {'p90':>10} {'p99':>10}",
    ]
    for key, label in (("wait", "wait[s]"), ("bounded_slowdown", "bounded slowdown")):
        stat = totals.get(key, {})
        mean, p50, p90, p99 = _pct_cols(stat)
        lines.append(f"  {label:<18} {mean:>10} {p50:>10} {p90:>10} {p99:>10}")
    util = totals.get("utilization")
    if util is not None:
        lines.append(f"  {'utilization':<18} {util:>10.1%}")
    lines.append(
        f"  jobs finished {totals.get('jobs_finished', 0)}, "
        f"completed {totals.get('jobs_completed', 0)}, "
        f"satisfied dyn {totals.get('satisfied_dyn_jobs', 0)}"
    )
    return "\n".join(lines)


def render_fairness_table(
    rows: Sequence[Mapping],
    *,
    title: str = "fairness observatory (per-account shares)",
) -> str:
    """Per-account rows: jobs, used core-seconds, share target vs actual."""
    lines = [
        title,
        f"  {'account':<16} {'jobs':>6} {'core-sec':>12} {'share':>8} "
        f"{'target':>8} {'error':>8} {'mean wait':>10} {'stretch':>8}",
    ]
    if not rows:
        lines.append("  (no usage accrued)")
        return "\n".join(lines)
    for row in rows:
        share = row.get("share")
        target = row.get("target")
        error = row.get("share_error")
        wait = row.get("mean_wait")
        stretch = row.get("mean_stretch")
        lines.append(
            f"  {row['account']:<16} {row.get('jobs', '-'):>6} "
            f"{row['core_seconds']:>12.0f} "
            f"{('-' if share is None else f'{share:.3f}'):>8} "
            f"{('-' if target is None else f'{target:.3f}'):>8} "
            f"{('-' if error is None else f'{error:.3f}'):>8} "
            f"{('-' if wait is None else f'{wait:.1f}'):>10} "
            f"{('-' if stretch is None else f'{stretch:.2f}'):>8}"
        )
    return "\n".join(lines)


def render_group_table(
    groups: Sequence[Mapping],
    *,
    title: str = "per-account distributions (P² sketches)",
) -> str:
    """One row per group: wait/slowdown/stretch means and percentiles."""
    lines = [
        title,
        f"  {'account':<16} {'jobs':>6} {'wait mean':>10} {'p99':>9} "
        f"{'bsld mean':>10} {'p99':>8} {'stretch mean':>13} {'p99':>8}",
    ]
    if not groups:
        lines.append("  (no jobs folded)")
        return "\n".join(lines)
    for g in groups:
        wait, bsld = g.get("wait", {}), g.get("bounded_slowdown", {})
        stretch = g.get("stretch", {})

        def col(stat, key, fmt="{:.1f}"):
            value = stat.get(key)
            return "-" if value is None else fmt.format(value)

        lines.append(
            f"  {g['key']:<16} {g['jobs']:>6} "
            f"{col(wait, 'mean'):>10} {col(wait, 'p99'):>9} "
            f"{col(bsld, 'mean', '{:.2f}'):>10} {col(bsld, 'p99', '{:.2f}'):>8} "
            f"{col(stretch, 'mean', '{:.2f}'):>13} {col(stretch, 'p99', '{:.2f}'):>8}"
        )
    return "\n".join(lines)


def render_slo_summary(summary: Sequence[Mapping]) -> str:
    """Per-objective verdict table (declared order)."""
    lines = [
        "SLO objectives:",
        f"  {'objective':<28} {'evals':>6} {'breaches':>9} {'worst':>12} verdict",
    ]
    if not summary:
        lines.append("  (no objectives declared)")
        return "\n".join(lines)
    for row in summary:
        worst = row.get("worst_value")
        lines.append(
            f"  {row['objective']:<28} {row['evaluations']:>6} "
            f"{row['breaches']:>9} "
            f"{('-' if worst is None else f'{worst:.2f}'):>12} "
            f"{'OK' if row['ok'] else 'BREACHED'}"
        )
    return "\n".join(lines)


def render_breach_tail(breaches: Sequence[Mapping], n: int = 20) -> str:
    """The newest ``n`` SLO breaches, one per line."""
    shown = list(breaches)[-n:]
    hidden = len(breaches) - len(shown)
    lines = [f"... {hidden} earlier breaches not shown ..."] if hidden else []
    for b in shown:
        subject = b.get("job_id") or b.get("job_user") or "-"
        lines.append(
            f"#{b['seq']:<4} window {b['window']:>4} "
            f"[{b['start']:>9.0f},{b['end']:>9.0f})  "
            f"{b['objective']:<26} value={b['value']:.2f} {subject}"
        )
    if not shown:
        lines.append("(no breaches recorded)")
    return "\n".join(lines)


def render_ledger_table(
    snapshot: Mapping[tuple[str, str], float] | Iterable[tuple[tuple[str, str], float]],
    *,
    title: str = "DFS ledger (cumulative delay charged this interval)",
) -> str:
    """Per-principal DFS delay ledger as a fixed-width table."""
    rows = sorted(dict(snapshot).items())
    lines = [title, f"  {'kind':<8} {'principal':<16} {'delay[s]':>12}"]
    if not rows:
        lines.append("  (no delay charged)")
        return "\n".join(lines)
    for (kind, name), delay in rows:
        lines.append(f"  {kind:<8} {name:<16} {delay:>12.1f}")
    return "\n".join(lines)
