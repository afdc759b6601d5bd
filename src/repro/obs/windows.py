"""Streaming windowed metrics: bounded-memory aggregation of long replays.

Every aggregator in :mod:`repro.metrics` retains one :class:`JobRecord`
per job, so memory grows linearly with trace length — fine for the 230-job
ESP workload, fatal for million-job archive replays (ROADMAP item 2,
the 100k-job replay).
This module folds each *completed* job into running aggregates at the
moment it finishes and never looks at it again:

* **tumbling or sliding windows** over simulation time for utilization,
  waiting time, bounded slowdown and queue depth (``stride == width``
  gives tumbling windows; ``stride < width`` overlapping sliding ones);
* **exact percentiles**: waits, slowdowns and stretches are kept as
  8-byte floats in an ``array('d')``; a frame computes its quantiles once
  when it closes and drops its values, whole-run and per-group
  quantiles are computed at export;
* whole-run running totals designed to agree with the retained-job
  :class:`~repro.metrics.collector.WorkloadMetrics` to 1e-9 on workloads
  where every job completes (verified on Table II in the test suite).

With ``Server.attach_windows(..., fold_and_discard=True)`` the server
additionally drops each folded job from its ``jobs`` index after the
scheduler pass that saw it finish, so a replay retains no ``Job`` object:
what grows with the trace is two floats per job for the whole-run
quantiles.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import IO, Callable

__all__ = ["StreamingStat", "Sample", "WindowFrame", "GroupStats",
           "WindowedMetrics", "read_windows_jsonl"]


def _at(xs: list[float], p: float) -> float:
    """The ``p`` quantile of sorted ``xs``: linear between the two values
    around rank ``(n - 1) * p`` (numpy's ``"linear"`` method); NaN when
    empty."""
    if not xs:
        return math.nan
    h = (len(xs) - 1) * p
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


class StreamingStat:
    """Running count/sum/min/max — the retained-list replacement."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {"count": self.count, "mean": self.mean,
                "min": self.min, "max": self.max}


class Sample(StreamingStat):
    """A :class:`StreamingStat` that keeps its values for exact quantiles.

    :meth:`freeze` computes the quantiles once and drops the values, so a
    closed window holds three floats, not its jobs' values.
    """

    __slots__ = ("values", "frozen")

    def __init__(self) -> None:
        super().__init__()
        self.values = array("d")
        #: quantile -> value, set by :meth:`freeze`
        self.frozen: dict[float, float] | None = None

    def add(self, x: float) -> None:
        super().add(x)
        self.values.append(x)

    def quantiles(self, ps) -> dict[float, float]:
        """Exact quantile per ``p`` in ``ps`` (NaN when empty); once
        frozen, the quantiles computed then."""
        if self.frozen is not None:
            return self.frozen
        xs = sorted(self.values)
        return {p: _at(xs, p) for p in ps}

    def freeze(self, ps) -> None:
        self.frozen = self.quantiles(ps)
        self.values = array("d")

    def as_dict(self, ps=()) -> dict[str, float]:
        out = super().as_dict()
        for p, v in self.quantiles(ps).items():
            out[f"p{round(p * 100):02d}"] = None if math.isnan(v) else v
        return out


class WindowFrame:
    """Aggregates for one time window ``[start, end)``."""

    __slots__ = (
        "index", "start", "end", "quantiles", "finished", "completed",
        "wait", "slowdown", "busy_core_seconds", "depth_integral", "depth_max",
        "worst_wait", "worst_wait_job", "worst_wait_user", "worst_wait_submit",
    )

    def __init__(self, index: int, start: float, end: float,
                 quantiles: tuple[float, ...]) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.quantiles = quantiles
        self.finished = 0
        self.completed = 0
        self.wait = Sample()
        self.slowdown = Sample()
        self.busy_core_seconds = 0.0
        self.depth_integral = 0.0
        self.depth_max = 0
        #: the job whose wait dominated this window — the causal subject
        #: SLO breach decisions anchor to (``repro.obs.slo``).  The id is
        #: the in-run ledger key; user + submit are the process-stable
        #: identity deterministic exports use (job ids come from a
        #: process-global counter, so they vary with worker layout)
        self.worst_wait = -math.inf
        self.worst_wait_job: str | None = None
        self.worst_wait_user: str | None = None
        self.worst_wait_submit: float | None = None

    def close(self) -> None:
        """The window is over: compute its quantiles, drop its values."""
        self.wait.freeze(self.quantiles)
        self.slowdown.freeze(self.quantiles)

    def to_dict(self, total_cores: int | None) -> dict:
        width = self.end - self.start
        out = {
            "kind": "window",
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "finished": self.finished,
            "completed": self.completed,
            "wait": self.wait.as_dict(self.quantiles),
            "bounded_slowdown": self.slowdown.as_dict(self.quantiles),
            "busy_core_seconds": self.busy_core_seconds,
            "queue_depth": {
                "time_mean": self.depth_integral / width if width else 0.0,
                "max": self.depth_max,
            },
        }
        if total_cores:
            out["utilization"] = self.busy_core_seconds / (total_cores * width)
        return out


class GroupStats:
    """Whole-run per-group (account) aggregates: the fairness dimension.

    One instance per group key (account, falling back to user — see
    :func:`repro.obs.fairness.principal_of`), holding wait,
    bounded-slowdown and stretch samples with exact percentiles.
    Memory is O(groups) plus three floats per job, never a ``Job``.
    """

    __slots__ = ("key", "quantiles", "jobs", "completed", "wait", "slowdown",
                 "stretch")

    def __init__(self, key: str, quantiles: tuple[float, ...]) -> None:
        self.key = key
        self.quantiles = quantiles
        self.jobs = 0
        self.completed = 0
        self.wait = Sample()
        self.slowdown = Sample()
        self.stretch = Sample()

    def fold(self, wait: float, slowdown: float, stretch: float,
             completed: bool) -> None:
        self.jobs += 1
        if completed:
            self.completed += 1
        self.wait.add(wait)
        self.slowdown.add(slowdown)
        self.stretch.add(stretch)

    def to_dict(self) -> dict:
        return {
            "kind": "group",
            "key": self.key,
            "jobs": self.jobs,
            "completed": self.completed,
            "wait": self.wait.as_dict(self.quantiles),
            "bounded_slowdown": self.slowdown.as_dict(self.quantiles),
            "stretch": self.stretch.as_dict(self.quantiles),
        }


class WindowedMetrics:
    """Folds completed jobs and resource telemetry into time windows.

    Tumbling by default; pass ``stride < width`` for sliding windows (a
    point then lands in ``ceil(width / stride)`` overlapping windows).
    Windows with no activity are never materialised, so memory is
    proportional to *active* windows, and closed windows are plain
    aggregate frames — no job objects are retained anywhere.
    """

    DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

    def __init__(
        self,
        width: float,
        *,
        stride: float | None = None,
        total_cores: int | None = None,
        slowdown_tau: float = 10.0,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
        group_by: str | Callable | None = None,
    ) -> None:
        if width <= 0:
            raise ValueError(f"window width must be positive: {width}")
        stride = width if stride is None else float(stride)
        if not 0 < stride <= width:
            raise ValueError(f"stride must be in (0, width]: {stride}")
        self.width = float(width)
        self.stride = stride
        self.total_cores = total_cores
        self.slowdown_tau = float(slowdown_tau)
        self.quantiles = tuple(sorted(set(float(q) for q in quantiles)))
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantile must be in (0, 1): {q}")
        #: the group-by-account dimension: a job attribute name or a
        #: callable ``job -> key``; None keeps folding ungrouped
        self._group_key: Callable | None = None
        if group_by is not None:
            self.set_group_by(group_by)
        self.groups: dict[str, GroupStats] = {}
        #: called with each :class:`WindowFrame` as it closes (sorted by
        #: window index) — the SLO engine's evaluation hook
        self.on_frame_close: Callable | None = None
        #: open frames keyed by window index (window k spans
        #: ``[k*stride, k*stride + width)``)
        self._open: dict[int, WindowFrame] = {}
        #: the earliest end among open frames: nothing closes before it
        self._next_end = math.inf
        self.closed: list[WindowFrame] = []
        self._frontier = 0.0
        # whole-run totals -------------------------------------------------
        self.jobs_finished = 0
        self.jobs_completed = 0
        self.evolving_jobs = 0
        self.satisfied_dyn_jobs = 0
        self.first_submit = math.inf
        self.last_end = -math.inf
        self.wait = Sample()
        self.slowdown = Sample()
        self.turnaround = StreamingStat()
        # busy-core integral, fed by the server at every change of its
        # busy cores; taken up to ``last_end`` whenever that moves
        self._busy_t = 0.0
        self._busy_val = 0
        self.busy_core_seconds = 0.0
        self._busy_at_last_end = 0.0
        # queue-depth integral; ``depth`` is the depth in force since
        # ``_depth_t`` (the server reports changes only)
        self._depth_t = 0.0
        self.depth = 0
        self.depth_integral = 0.0
        self.depth_max = 0

    def set_capacity(self, total_cores: int) -> None:
        """Installed cores, needed for utilization (wired at attach)."""
        self.total_cores = int(total_cores)

    def set_group_by(self, group_by: str | Callable) -> None:
        """Enable the per-group fold dimension (attribute name or callable)."""
        if callable(group_by):
            self._group_key = group_by
        else:
            attr = str(group_by)
            self._group_key = lambda job: getattr(job, attr)

    @property
    def grouped(self) -> bool:
        return self._group_key is not None

    # ------------------------------------------------------------------
    # window bookkeeping
    # ------------------------------------------------------------------
    def _frame(self, k: int) -> WindowFrame:
        """Open frame ``k``, materialised on first use.

        A new frame's peak depth starts at the depth in force when it
        opened: any earlier depth it overlaps already materialised it.
        """
        frame = self._open.get(k)
        if frame is None:
            start = k * self.stride
            frame = self._open[k] = WindowFrame(
                k, start, start + self.width, self.quantiles
            )
            if self._depth_t <= start:
                frame.depth_max = self.depth
            if frame.end < self._next_end:
                self._next_end = frame.end
        return frame

    def _frames_covering(self, t: float) -> list[WindowFrame]:
        """Open frames whose span contains ``t`` (materialising them)."""
        stride, width = self.stride, self.width
        if stride == width:  # tumbling: exactly one
            return [self._frame(int(t // stride))]
        k_max = int(t // stride)
        k_min = max(0, int(math.floor((t - width) / stride)) + 1)
        return [
            self._frame(k)
            for k in range(k_min, k_max + 1)
            if k * stride <= t < k * stride + width
        ]

    def _accrue_span(self, t0: float, t1: float, attr: str, value: float) -> None:
        """Distribute ``value * dt`` of integral over windows in [t0, t1)."""
        if value == 0.0 or t1 <= t0:
            return
        stride, width = self.stride, self.width
        k = int(t0 // stride)
        if stride == width and t1 <= (k + 1) * stride:  # inside one tumbling frame
            frame = self._frame(k)
            setattr(frame, attr, getattr(frame, attr) + value * (t1 - t0))
            return
        k_min = max(0, int(math.floor((t0 - width) / stride)) + 1)
        k_max = int(t1 // stride)
        for k in range(k_min, k_max + 1):
            start = k * stride
            overlap = min(t1, start + width) - max(t0, start)
            if overlap <= 0:
                continue
            frame = self._frame(k)
            setattr(frame, attr, getattr(frame, attr) + value * overlap)

    def _advance(self, t: float) -> None:
        """Move the frontier to ``t``, closing frames safely behind it.

        A frame only closes once the busy integral has passed its end —
        it accrues spans reaching back to its last change, and closing
        early would let a later span re-materialise a duplicate frame for
        the same window index.  The depth in force is accrued up to the
        same point first: it holds until the server reports a change.
        """
        if t > self._frontier:
            self._frontier = t
        safe = min(self._frontier, self._busy_t)
        if safe < self._next_end:
            return
        self._depth_to(safe)  # may open frames, which may close too
        done = sorted(k for k, frame in self._open.items() if frame.end <= safe)
        closing = [self._open.pop(k) for k in done]
        self._next_end = min(
            (frame.end for frame in self._open.values()), default=math.inf
        )
        cb = self.on_frame_close
        for frame in closing:
            frame.close()
            self.closed.append(frame)
            if cb is not None:
                cb(frame)

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------
    def reset_busy(self, now: float, busy: int) -> None:
        """(Re)anchor the busy integral (``Server.attach_windows``)."""
        self._busy_t = float(now)
        self._busy_val = int(busy)
        self.busy_core_seconds = 0.0

    def on_busy_change(self, now: float, busy: int) -> None:
        """Busy-core count changed (fed by the server)."""
        self.busy_core_seconds += self._busy_val * (now - self._busy_t)
        self._accrue_span(self._busy_t, now, "busy_core_seconds", self._busy_val)
        self._busy_t = now
        self._busy_val = busy
        self._advance(now)

    def _depth_to(self, t: float) -> None:
        """Accrue the depth in force over ``[_depth_t, t)``."""
        if t > self._depth_t:
            self.depth_integral += self.depth * (t - self._depth_t)
            self._accrue_span(self._depth_t, t, "depth_integral", self.depth)
            self._depth_t = t

    def observe_queue_depth(self, now: float, depth: int) -> None:
        """Queue depth changed to ``depth`` at sim-time ``now``."""
        self._depth_to(now)
        self.depth = depth
        if depth > self.depth_max:
            self.depth_max = depth
        if depth > 0:
            for frame in self._frames_covering(now):
                if depth > frame.depth_max:
                    frame.depth_max = depth
        self._advance(now)

    def fold_job(self, job) -> None:
        """Fold a finished job into the aggregates; the job can be dropped.

        Matches the retained-path semantics of
        :class:`~repro.metrics.collector.WorkloadMetrics`: wait counts
        jobs that started, bounded slowdown jobs that started *and*
        ended, both read from the job's final state.
        """
        end = job.end_time
        if end is None:
            raise ValueError(f"{job.job_id} has not finished; cannot fold")
        self._advance(end)
        frames = self._frames_covering(end)
        self.jobs_finished += 1
        completed = job.state.value == "completed"
        if completed:
            self.jobs_completed += 1
        if job.is_evolving:
            self.evolving_jobs += 1
            if job.dyn_granted > 0:
                self.satisfied_dyn_jobs += 1
        submit = job.submit_time if job.submit_time is not None else 0.0
        if submit < self.first_submit:
            self.first_submit = submit
        if end > self.last_end:
            self.last_end = end
            busy = self.busy_core_seconds
            if end > self._busy_t:
                busy += self._busy_val * (end - self._busy_t)
            self._busy_at_last_end = busy
        for frame in frames:
            frame.finished += 1
            if completed:
                frame.completed += 1
        start = job.start_time
        if start is None:
            return
        wait = start - submit
        self.wait.add(wait)
        self.turnaround.add(end - submit)
        run = end - start
        slowdown = max(1.0, (wait + run) / max(run, self.slowdown_tau))
        self.slowdown.add(slowdown)
        for frame in frames:
            frame.wait.add(wait)
            frame.slowdown.add(slowdown)
            if wait > frame.worst_wait:
                frame.worst_wait = wait
                frame.worst_wait_job = job.job_id
                frame.worst_wait_user = getattr(job, "user", None)
                frame.worst_wait_submit = submit
        if self._group_key is not None:
            key = self._group_key(job)
            group = self.groups.get(key)
            if group is None:
                group = GroupStats(key, self.quantiles)
                self.groups[key] = group
            stretch = (wait + run) / max(run, 1.0)
            group.fold(wait, slowdown, stretch, completed)

    # ------------------------------------------------------------------
    # derived whole-run quantities (the equivalence surface)
    # ------------------------------------------------------------------
    @property
    def mean_wait(self) -> float:
        return self.wait.mean

    def mean_bounded_slowdown(self) -> float:
        return self.slowdown.mean if self.slowdown.count else 1.0

    @property
    def mean_turnaround(self) -> float:
        return self.turnaround.mean

    @property
    def workload_time(self) -> float:
        if not self.jobs_finished:
            raise ValueError("no job has been folded yet")
        return self.last_end - self.first_submit

    @property
    def utilization(self) -> float:
        """Busy core-seconds over installed capacity across workload time."""
        if not self.total_cores:
            raise ValueError("total_cores unset; call set_capacity() first")
        return self._busy_at_last_end / (self.total_cores * self.workload_time)

    @property
    def frames(self) -> list[WindowFrame]:
        """All materialised frames in window order (closed + open)."""
        return sorted(
            self.closed + list(self._open.values()), key=lambda f: f.index
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def totals_dict(self) -> dict:
        out = {
            "kind": "totals",
            "jobs_finished": self.jobs_finished,
            "jobs_completed": self.jobs_completed,
            "evolving_jobs": self.evolving_jobs,
            "satisfied_dyn_jobs": self.satisfied_dyn_jobs,
            "first_submit": None if math.isinf(self.first_submit) else self.first_submit,
            "last_end": None if math.isinf(self.last_end) else self.last_end,
            "wait": self.wait.as_dict(self.quantiles),
            "bounded_slowdown": self.slowdown.as_dict(self.quantiles),
            "turnaround": self.turnaround.as_dict(),
            "busy_core_seconds": self.busy_core_seconds,
            "queue_depth": {"max": self.depth_max},
        }
        if self.total_cores and self.jobs_finished:
            out["utilization"] = self.utilization
        return out

    def group_totals(self) -> list[dict]:
        """Per-group aggregate dicts in deterministic (sorted-key) order."""
        return [self.groups[k].to_dict() for k in sorted(self.groups)]

    def export_jsonl(self, fp: IO[str]) -> int:
        """Dump meta + totals + one line per window, then per group."""
        lines = [
            {
                "kind": "meta",
                "schema": "repro-windows/1",
                "width": self.width,
                "stride": self.stride,
                "total_cores": self.total_cores,
                "slowdown_tau": self.slowdown_tau,
                "quantiles": list(self.quantiles),
            },
            self.totals_dict(),
        ]
        lines.extend(frame.to_dict(self.total_cores) for frame in self.frames)
        lines.extend(self.group_totals())
        for line in lines:
            fp.write(json.dumps(line, separators=(",", ":")) + "\n")
        return len(lines)

    def __repr__(self) -> str:
        return (
            f"<WindowedMetrics width={self.width:g} stride={self.stride:g} "
            f"windows={len(self.closed) + len(self._open)} "
            f"jobs={self.jobs_finished}>"
        )


def read_windows_jsonl(fp: IO[str]) -> dict:
    """Parse a windows dump into ``{"meta", "totals", "windows", "groups"}``."""
    meta: dict = {}
    totals: dict = {}
    windows: list[dict] = []
    groups: list[dict] = []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "meta":
            meta = record
        elif kind == "totals":
            totals = record
        elif kind == "window":
            windows.append(record)
        elif kind == "group":
            groups.append(record)
        else:
            raise ValueError(f"unknown record kind in windows dump: {record!r}")
    if not meta:
        raise ValueError("windows dump has no meta record")
    windows.sort(key=lambda w: w["index"])
    groups.sort(key=lambda g: g["key"])
    return {"meta": meta, "totals": totals, "windows": windows, "groups": groups}
