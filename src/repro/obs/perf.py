"""Phase-level wall-clock profiler for the scheduler/engine hot paths.

The span tracer answers "how long did one scheduler iteration take"; this
module answers "*where inside it* did the time go".  A
:class:`PhaseProfiler` maintains an explicit begin/end stack and accounts
each phase under its full call *path* — ``profile_build`` timed inside
``static_pass`` and inside ``delay_measure`` are kept as two separate rows,
so parent totals are never double-counted and the invariant

    parent.total ≈ parent.self + Σ direct-children.total

holds by construction (the acceptance check: direct children of an
iteration must sum to within 10 % of the iteration's own wall-clock).

Cost discipline mirrors the decision ledger: the profiler is off by
default (``Telemetry(profiling=True)`` opts in) and every disabled hook
site in the scheduler/engine is a single ``is not None`` attribute check,
covered by the 5 % budget in ``benchmarks/test_obs_overhead.py``.  When
enabled, ``begin``/``end`` are one clock read plus a few list/dict
operations each.

Outputs, in increasing persistence:

* :meth:`summary` / :meth:`tree` — aggregated totals for live rendering
  and the self-profile tree embedded in ``BENCH_*.json`` snapshots;
* per-phase :class:`~repro.obs.registry.Histogram`\\ s
  (``repro_phase_seconds{phase=...}``) in the shared registry;
* a bounded ring of per-phase records exported as a JSONL *phase trace*
  (:meth:`export_phases_jsonl`) for offline ``perf-report`` analysis.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Iterable

from repro.obs import clock

__all__ = [
    "PhaseProfiler",
    "PhaseStat",
    "aggregate_phase_records",
    "read_phases_jsonl",
    "stats_tree",
    "timed",
]

#: separator used when flattening a phase path into one label/JSON string
PATH_SEP = "/"


def timed(prof, name: str, fn, /, *args, sim_time: float | None = None, **kwargs):
    """``fn(*args, **kwargs)`` as phase ``name`` of ``prof`` — a plain call
    when ``prof`` is None (profiling off).  The one is-None check every
    per-pass phase of the scheduler shares; per-job phases keep their own
    so the disabled path pays no call frame."""
    if prof is None:
        return fn(*args, **kwargs)
    prof.begin(name, sim_time)
    try:
        return fn(*args, **kwargs)
    finally:
        prof.end()


class PhaseStat:
    """Aggregate for one phase path: count / total / self / max."""

    __slots__ = ("count", "total_ns", "self_ns", "max_ns")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.max_ns = 0

    def add(self, dur_ns: int, child_ns: int) -> None:
        self.count += 1
        self.total_ns += dur_ns
        self.self_ns += dur_ns - child_ns
        if dur_ns > self.max_ns:
            self.max_ns = dur_ns

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_ms": self.total_ns / 1e6,
            "self_ms": self.self_ns / 1e6,
            "mean_us": self.total_ns / self.count / 1e3 if self.count else 0.0,
            "max_us": self.max_ns / 1e3,
        }


class PhaseProfiler:
    """Explicit-stack, path-keyed phase timer.

    ``begin(name)`` pushes a frame; ``end()`` pops it and charges the
    elapsed wall time to the path formed by every open frame.  Durations
    spent in children are subtracted from the parent's *self* time but
    kept in its *total*, so both inclusive and exclusive views are exact.
    """

    def __init__(
        self,
        *,
        registry=None,
        trace_maxlen: int = 4096,
    ) -> None:
        if trace_maxlen <= 0:
            raise ValueError(f"trace_maxlen must be positive: {trace_maxlen}")
        #: open frames: ``[name, start_ns, child_ns]``
        self._stack: list[list] = []
        self._stats: dict[tuple[str, ...], PhaseStat] = {}
        #: bounded ring of ``(sim_time, path, wall_ns)`` phase records
        self._records: deque[tuple[float, tuple[str, ...], int]] = deque(
            maxlen=trace_maxlen
        )
        self.records_dropped = 0
        self._registry = registry
        #: memoised path -> Histogram (labels are built once per path)
        self._hists: dict[tuple[str, ...], object] = {}
        #: sim-time attributed to records; instrumented components set it
        #: when they open a root phase (the engine does, per dispatch)
        self.sim_time = 0.0

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def begin(self, name: str, sim_time: float | None = None) -> None:
        """Open a phase.  Must be balanced by exactly one :meth:`end`."""
        if sim_time is not None:
            self.sim_time = sim_time
        self._stack.append([name, clock.perf_ns(), 0])

    def end(self) -> int:
        """Close the innermost open phase; returns its wall time in ns."""
        now = clock.perf_ns()
        name, start_ns, child_ns = self._stack.pop()
        dur_ns = now - start_ns
        stack = self._stack
        if stack:
            stack[-1][2] += dur_ns
            path = tuple(f[0] for f in stack) + (name,)
        else:
            path = (name,)
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = PhaseStat()
        stat.add(dur_ns, child_ns)
        if len(self._records) == self._records.maxlen:
            self.records_dropped += 1
        self._records.append((self.sim_time, path, dur_ns))
        if self._registry is not None:
            hist = self._hists.get(path)
            if hist is None:
                hist = self._registry.histogram(
                    "repro_phase_seconds",
                    "Wall-clock seconds spent per profiled phase path",
                    labels={"phase": PATH_SEP.join(path)},
                )
                self._hists[path] = hist
            hist.observe(dur_ns / 1e9)
        return dur_ns

    @property
    def depth(self) -> int:
        """Number of currently open frames (0 when balanced)."""
        return len(self._stack)

    # ------------------------------------------------------------------
    # aggregated views
    # ------------------------------------------------------------------
    def stats(self) -> dict[tuple[str, ...], PhaseStat]:
        """Raw per-path aggregates (paths are tuples of phase names)."""
        return self._stats

    def total_phase_count(self) -> int:
        """Total number of completed ``begin``/``end`` pairs."""
        return sum(s.count for s in self._stats.values())

    def summary(self) -> dict[str, dict[str, float]]:
        """Flat ``path-string -> aggregates`` view, path-sorted."""
        return {
            PATH_SEP.join(path): stat.as_dict()
            for path, stat in sorted(self._stats.items())
        }

    def tree(self) -> dict:
        """Nested self-profile tree (the ``BENCH_*.json`` embed).

        Shape: ``{name: {count, total_ms, self_ms, children: {...}}}`` —
        JSON-serialisable, ms-rounded to keep snapshots diffable.
        """
        return stats_tree(self._stats)

    def child_coverage(self, path: tuple[str, ...]) -> float:
        """Fraction of ``path``'s total accounted by its direct children.

        1.0 means the children (plus the parent's own bookkeeping, which
        is *self* time and excluded here) perfectly tile the parent.  The
        acceptance criterion checks coverage + self ≈ 1 within 10 %.
        """
        parent = self._stats.get(path)
        if parent is None or parent.total_ns == 0:
            return 0.0
        child_total = sum(
            s.total_ns
            for p, s in self._stats.items()
            if len(p) == len(path) + 1 and p[: len(path)] == path
        )
        return child_total / parent.total_ns

    # ------------------------------------------------------------------
    # phase trace (JSONL)
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterable[dict]:
        """Retained phase records as JSON-ready dicts (oldest first)."""
        for sim_time, path, dur_ns in self._records:
            yield {"t": sim_time, "phase": PATH_SEP.join(path), "wall_ns": dur_ns}

    def export_phases_jsonl(self, fp: IO[str]) -> int:
        """Write the retained phase trace as JSONL; returns line count.

        The ring keeps the most recent ``trace_maxlen`` records;
        :attr:`records_dropped` says how many older ones were evicted
        (aggregates in :meth:`summary` always cover everything).
        """
        count = 0
        for record in self.iter_records():
            fp.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
        return count

    def __repr__(self) -> str:
        return (
            f"<PhaseProfiler {len(self._stats)} paths "
            f"{self.total_phase_count()} phases depth={self.depth}>"
        )


def stats_tree(stats: dict[tuple[str, ...], PhaseStat]) -> dict:
    """Nest per-path aggregates into the self-profile tree shape.

    ``{name: {count, total_ms, self_ms, children: {...}}}``, ms rounded to
    4 decimal places — shared by the live profiler and the offline
    ``perf-report`` aggregation.
    """
    root: dict = {}
    for path, stat in sorted(stats.items()):
        level = root
        for name in path[:-1]:
            level = level.setdefault(
                name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "children": {}}
            )["children"]
        node = level.setdefault(
            path[-1],
            {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "children": {}},
        )
        node["count"] = stat.count
        node["total_ms"] = round(stat.total_ns / 1e6, 4)
        node["self_ms"] = round(stat.self_ns / 1e6, 4)
    return root


# ----------------------------------------------------------------------
# offline analysis of dumped phase traces (the ``perf-report`` input)
# ----------------------------------------------------------------------
def read_phases_jsonl(fp: IO[str]) -> list[dict]:
    """Parse a phase-trace JSONL stream back into record dicts."""
    records = []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if "phase" not in record or "wall_ns" not in record:
            raise ValueError(f"not a phase record: {record!r}")
        records.append(record)
    return records


def aggregate_phase_records(records: Iterable[dict]) -> dict[tuple[str, ...], PhaseStat]:
    """Rebuild per-path aggregates from dumped records.

    Records carry no child attribution, so *self* time is reconstructed
    the same way the live profiler computes it: each path's direct
    children's totals are subtracted from its own total at the end.
    """
    stats: dict[tuple[str, ...], PhaseStat] = {}
    for record in records:
        path = tuple(record["phase"].split(PATH_SEP))
        stat = stats.get(path)
        if stat is None:
            stat = stats[path] = PhaseStat()
        stat.add(int(record["wall_ns"]), 0)
    for path, stat in stats.items():
        child_ns = sum(
            s.total_ns
            for p, s in stats.items()
            if len(p) == len(path) + 1 and p[: len(path)] == path
        )
        stat.self_ns = stat.total_ns - child_ns
    return stats
