"""Streaming windowed metrics: bounded-memory aggregation of long replays.

Every aggregator in :mod:`repro.metrics` retains one :class:`JobRecord`
per job, so memory grows linearly with trace length — fine for the 230-job
ESP workload, fatal for million-job archive replays (ROADMAP item 1).
This module folds each *completed* job into running aggregates at the
moment it finishes and never looks at it again:

* **tumbling or sliding windows** over simulation time for utilization,
  waiting time, bounded slowdown and queue depth (``stride == width``
  gives tumbling windows; ``stride < width`` overlapping sliding ones);
* **P² streaming quantile sketches** (Jain & Chlamtac, CACM 1985) for
  percentiles without retaining samples — five markers per quantile;
* whole-run running totals designed to agree with the retained-job
  :class:`~repro.metrics.collector.WorkloadMetrics` to 1e-9 on workloads
  where every job completes (verified on Table II in the test suite).

With ``Server.attach_windows(..., fold_and_discard=True)`` the server
additionally drops each folded job from its ``jobs`` index once the
scheduler has accrued its final fairshare segment, so a replay holds
O(windows) memory instead of O(jobs).
"""

from __future__ import annotations

import json
import math
from typing import IO, Callable

__all__ = ["P2Quantile", "StreamingStat", "WindowFrame", "GroupStats",
           "WindowedMetrics", "read_windows_jsonl"]


class P2Quantile:
    """P² single-quantile estimator: O(1) memory, no retained samples.

    Maintains five markers whose heights approximate the ``p`` quantile;
    below five observations the exact value is interpolated from the
    buffered samples, so small streams are exact.
    """

    __slots__ = ("p", "_buf", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1): {p}")
        self.p = float(p)
        self._buf: list[float] | None = []
        self._q: list[float] = []
        self._n: list[float] = []
        self._np: list[float] = []
        self._dn: list[float] = []

    @property
    def count(self) -> int:
        if self._buf is not None:
            return len(self._buf)
        return int(self._n[4]) + 1

    def observe(self, x: float) -> None:
        x = float(x)
        buf = self._buf
        if buf is not None:
            buf.append(x)
            if len(buf) == 5:
                buf.sort()
                p = self.p
                self._q = buf
                self._n = [0.0, 1.0, 2.0, 3.0, 4.0]
                self._np = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]
                self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
                self._buf = None
            return
        q, n, np_, dn = self._q, self._n, self._np, self._dn
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            if x > q[4]:
                q[4] = x
            k = 3
        else:
            k = 3
            for i in range(1, 5):
                if x < q[i]:
                    k = i - 1
                    break
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            np_[i] += dn[i]
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                sign = 1.0 if d >= 0.0 else -1.0
                candidate = self._parabolic(i, sign)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, sign)
                q[i] = candidate
                n[i] += sign

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (NaN before any observation)."""
        if self._buf is not None:
            buf = sorted(self._buf)
            if not buf:
                return math.nan
            if len(buf) == 1:
                return buf[0]
            h = (len(buf) - 1) * self.p
            lo = int(h)
            hi = min(lo + 1, len(buf) - 1)
            return buf[lo] + (h - lo) * (buf[hi] - buf[lo])
        return self._q[2]

    def __repr__(self) -> str:
        return f"<P2Quantile p={self.p} n={self.count} value={self.value:.4g}>"


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


class WindowFrame:
    """Aggregates for one time window ``[start, end)``."""

    __slots__ = (
        "index", "start", "end", "finished", "completed",
        "wait", "slowdown", "wait_sketches", "slowdown_sketches",
        "busy_core_seconds", "depth_integral", "depth_max",
        "worst_wait", "worst_wait_job", "worst_wait_user", "worst_wait_submit",
    )

    def __init__(self, index: int, start: float, end: float,
                 quantiles: tuple[float, ...]) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.finished = 0
        self.completed = 0
        self.wait = StreamingStat()
        self.slowdown = StreamingStat()
        self.wait_sketches = {q: P2Quantile(q) for q in quantiles}
        self.slowdown_sketches = {q: P2Quantile(q) for q in quantiles}
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

    def to_dict(self, total_cores: int | None) -> dict:
        width = self.end - self.start
        out = {
            "kind": "window",
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "finished": self.finished,
            "completed": self.completed,
            "wait": self.wait.as_dict(),
            "bounded_slowdown": self.slowdown.as_dict(),
            "busy_core_seconds": self.busy_core_seconds,
            "queue_depth": {
                "time_mean": self.depth_integral / width if width else 0.0,
                "max": self.depth_max,
            },
        }
        out["wait"].update(_sketch_values(self.wait_sketches))
        out["bounded_slowdown"].update(_sketch_values(self.slowdown_sketches))
        if total_cores:
            out["utilization"] = self.busy_core_seconds / (total_cores * width)
        return out


def _sketch_values(sketches: dict[float, P2Quantile]) -> dict[str, float]:
    out = {}
    for q, sketch in sketches.items():
        v = sketch.value
        out[f"p{round(q * 100):02d}"] = None if math.isnan(v) else v
    return out


class GroupStats:
    """Whole-run per-group (account) aggregates: the fairness dimension.

    One instance per group key (account, falling back to user — see
    :func:`repro.obs.fairness.principal_of`), holding streaming wait,
    bounded-slowdown and stretch statistics with P² percentile sketches.
    Memory is O(groups), never O(jobs) — the fold-and-discard contract
    extends to the group dimension unchanged.
    """

    __slots__ = ("key", "jobs", "completed", "wait", "slowdown", "stretch",
                 "wait_sketches", "slowdown_sketches", "stretch_sketches")

    def __init__(self, key: str, quantiles: tuple[float, ...]) -> None:
        self.key = key
        self.jobs = 0
        self.completed = 0
        self.wait = StreamingStat()
        self.slowdown = StreamingStat()
        self.stretch = StreamingStat()
        self.wait_sketches = {q: P2Quantile(q) for q in quantiles}
        self.slowdown_sketches = {q: P2Quantile(q) for q in quantiles}
        self.stretch_sketches = {q: P2Quantile(q) for q in quantiles}

    def fold(self, wait: float, slowdown: float, stretch: float,
             completed: bool) -> None:
        self.jobs += 1
        if completed:
            self.completed += 1
        self.wait.add(wait)
        self.slowdown.add(slowdown)
        self.stretch.add(stretch)
        for sketch in self.wait_sketches.values():
            sketch.observe(wait)
        for sketch in self.slowdown_sketches.values():
            sketch.observe(slowdown)
        for sketch in self.stretch_sketches.values():
            sketch.observe(stretch)

    def to_dict(self) -> dict:
        out = {
            "kind": "group",
            "key": self.key,
            "jobs": self.jobs,
            "completed": self.completed,
            "wait": self.wait.as_dict(),
            "bounded_slowdown": self.slowdown.as_dict(),
            "stretch": self.stretch.as_dict(),
        }
        out["wait"].update(_sketch_values(self.wait_sketches))
        out["bounded_slowdown"].update(_sketch_values(self.slowdown_sketches))
        out["stretch"].update(_sketch_values(self.stretch_sketches))
        return out


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
        #: the group-by-account dimension: a job attribute name or a
        #: callable ``job -> key``; None keeps folding ungrouped
        self._group_key: Callable | None = None
        if group_by is not None:
            self.set_group_by(group_by)
        self.groups: dict[str, GroupStats] = {}
        #: called with each :class:`WindowFrame` as it closes (sorted by
        #: window index) and the time of the feed that closed it — the SLO
        #: engine's evaluation hook
        self.on_frame_close: Callable | None = None
        #: open frames keyed by window index (window k spans
        #: ``[k*stride, k*stride + width)``)
        self._open: dict[int, WindowFrame] = {}
        self.closed: list[WindowFrame] = []
        self._frontier = 0.0
        # whole-run totals -------------------------------------------------
        self.jobs_finished = 0
        self.jobs_completed = 0
        self.evolving_jobs = 0
        self.satisfied_dyn_jobs = 0
        self.first_submit = math.inf
        self.last_end = -math.inf
        self.wait = StreamingStat()
        self.slowdown = StreamingStat()
        self.turnaround = StreamingStat()
        self.wait_sketches = {q: P2Quantile(q) for q in self.quantiles}
        self.slowdown_sketches = {q: P2Quantile(q) for q in self.quantiles}
        # busy-core integral (mirrors Telemetry's, fed from the same hook)
        self._busy_t = 0.0
        self._busy_val = 0
        self.busy_core_seconds = 0.0
        # queue-depth integral
        self._depth_t = 0.0
        self._depth_val = 0
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
    def _frames_covering(self, t: float) -> list[WindowFrame]:
        """Open frames whose span contains ``t`` (materialising them)."""
        stride, width = self.stride, self.width
        k_max = int(t // stride)
        k_min = max(0, int(math.floor((t - width) / stride)) + 1)
        frames = []
        for k in range(k_min, k_max + 1):
            start = k * stride
            if not start <= t < start + width:
                continue
            frame = self._open.get(k)
            if frame is None:
                frame = WindowFrame(k, start, start + width, self.quantiles)
                self._open[k] = frame
            frames.append(frame)
        return frames

    def _accrue_span(self, t0: float, t1: float, attr: str, value: float) -> None:
        """Distribute ``value * dt`` of integral over windows in [t0, t1)."""
        if value == 0.0 or t1 <= t0:
            return
        stride, width = self.stride, self.width
        k_min = max(0, int(math.floor((t0 - width) / stride)) + 1)
        k_max = int(t1 // stride)
        for k in range(k_min, k_max + 1):
            start = k * stride
            overlap = min(t1, start + width) - max(t0, start)
            if overlap <= 0:
                continue
            frame = self._open.get(k)
            if frame is None:
                frame = WindowFrame(k, start, start + width, self.quantiles)
                self._open[k] = frame
            setattr(frame, attr, getattr(frame, attr) + value * overlap)

    def _advance(self, t: float) -> None:
        """Move the frontier to ``t``, closing frames safely behind it.

        A frame only closes once *every* lagging integral feed has passed
        its end — the busy/depth integrals accrue spans reaching back to
        their last change, and closing early would let a later span
        re-materialise a duplicate frame for the same window index.
        """
        if t > self._frontier:
            self._frontier = t
        if not self._open:
            return
        safe = min(self._frontier, self._busy_t, self._depth_t)
        done = [k for k, frame in self._open.items() if frame.end <= safe]
        if done:
            cb = self.on_frame_close
            for k in sorted(done):
                frame = self._open.pop(k)
                self.closed.append(frame)
                if cb is not None:
                    cb(frame, self._frontier)

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------
    def reset_busy(self, now: float, busy: int) -> None:
        """(Re)anchor the busy integral; mirrors Telemetry.reset_busy_clock."""
        self._busy_t = float(now)
        self._busy_val = int(busy)
        self.busy_core_seconds = 0.0

    def on_busy_change(self, now: float, busy: int) -> None:
        """Busy-core count changed (fed through Telemetry's cluster hook)."""
        self.busy_core_seconds += self._busy_val * (now - self._busy_t)
        self._accrue_span(self._busy_t, now, "busy_core_seconds", self._busy_val)
        self._busy_t = now
        self._busy_val = busy
        self._advance(now)

    def observe_queue_depth(self, now: float, depth: int) -> None:
        """Queue depth changed at sim-time ``now`` (time-weighted)."""
        self.depth_integral += self._depth_val * (now - self._depth_t)
        self._accrue_span(self._depth_t, now, "depth_integral", self._depth_val)
        self._depth_t = now
        self._depth_val = depth
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
        for sketch in self.wait_sketches.values():
            sketch.observe(wait)
        run = end - start
        slowdown = max(1.0, (wait + run) / max(run, self.slowdown_tau))
        self.slowdown.add(slowdown)
        for sketch in self.slowdown_sketches.values():
            sketch.observe(slowdown)
        for frame in frames:
            frame.wait.add(wait)
            frame.slowdown.add(slowdown)
            for sketch in frame.wait_sketches.values():
                sketch.observe(wait)
            for sketch in frame.slowdown_sketches.values():
                sketch.observe(slowdown)
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
        busy = self.busy_core_seconds
        if self._busy_val and self.last_end > self._busy_t:
            busy += self._busy_val * (self.last_end - self._busy_t)
        return busy / (self.total_cores * self.workload_time)

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
            "wait": self.wait.as_dict(),
            "bounded_slowdown": self.slowdown.as_dict(),
            "turnaround": self.turnaround.as_dict(),
            "busy_core_seconds": self.busy_core_seconds,
            "queue_depth": {"max": self.depth_max},
        }
        out["wait"].update(_sketch_values(self.wait_sketches))
        out["bounded_slowdown"].update(_sketch_values(self.slowdown_sketches))
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
