"""Span tracing from outside the program, for the benchmark's traced pass.

Nothing under ``src/`` is edited to be measured.  For the traced pass the
benchmark replaces public callables of each layer with wrappers that open
and close a span (name, start, end, parent) around the call; the timed
repeats never install them.  Two hooks cover everything that is dispatched
indirectly:

* ``Engine.at`` — every scheduled callback is wrapped when it is queued,
  labelled with the layer of the module that defines it, so all
  engine-dispatched time lands in some layer (``Engine.after`` funnels
  through ``at``);
* ``TraceLog.subscribe`` / ``SLOEngine.attach_windows`` — callbacks handed
  over at wiring time (the decision ledger's lifecycle feed, the SLO
  engine's frame-close evaluation) are wrapped the same way.

Spans are kept in memory as flat columns plus a path tree of
``(count, total, child total)``; self time is total minus child total.
Targets are resolved by dotted name at install time and skipped (and
reported) when a refactor has moved them, so the benchmark keeps running.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict

__all__ = ["Tracer", "install"]

#: module prefix -> layer; first match wins.  The TM context is the
#: application's handle on the batch system, so its callbacks (``finish``)
#: count as application callbacks.
_MODULE_LAYERS = (
    ("repro.apps", "apps"),
    ("repro.rms.tm", "apps"),
    ("repro.rms", "rms"),
    ("repro.maui", "maui"),
    ("repro.cluster", "cluster"),
    ("repro.obs", "obs"),
    ("repro.sim", "sim"),
    ("repro.service", "service"),
    ("repro.workloads", "workloads"),
    ("repro.metrics", "metrics"),
    ("repro.system", "system"),
)


def layer_of_module(module: str | None) -> str:
    """The layer a callback defined in ``module`` belongs to."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class Tracer:
    """In-memory span recorder with per-path aggregation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (set-up runs with the wrappers
        installed; only the timed region is accounted)."""
        # raw spans, one column each (a million spans stay under 30 MB)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # path tree node: [count, total, child_total, {name_id: node}]
        self.root: list = [0, 0.0, 0.0, {}]
        self._stack: list = [(self.root, -1, 0.0)]
        #: plain counters bumped by the hooks (events, distinct timestamps,
        #: productive passes)
        self.counters: dict[str, int] = defaultdict(int)
        self._last_time: float | None = None

    # -- recording --------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> None:
        stack = self._stack
        parent_node, parent_idx, _ = stack[-1]
        children = parent_node[3]
        node = children.get(nid)
        if node is None:
            node = children[nid] = [0, 0.0, 0.0, {}]
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent_idx)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        stack.append((node, idx, start))

    def end(self) -> None:
        now = time.perf_counter()
        node, idx, start = self._stack.pop()
        duration = now - start
        node[0] += 1
        node[1] += duration
        self._stack[-1][0][2] += duration
        self.span_end[idx] = now

    def span(self, name: str) -> "_Span":
        """Context manager for an explicit span around a top-level call."""
        return _Span(self, self.name_id(name))

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def callback_id(self, callback, suffix: str) -> int:
        """Span id ``<layer of the callback's module>.<suffix>``."""
        target = getattr(callback, "func", callback)  # functools.partial
        target = getattr(target, "__func__", target)  # bound method
        layer = layer_of_module(getattr(target, "__module__", None))
        return self.name_id(f"{layer}.{suffix}")

    def wrap_callback(self, callback, suffix: str):
        """A dispatched callback as a span labelled by its defining layer."""
        nid = self.callback_id(callback, suffix)
        begin, end = self.begin, self.end

        def dispatched(*args):
            begin(nid)
            try:
                return callback(*args)
            finally:
                end()

        return dispatched

    # -- aggregation ------------------------------------------------------
    def paths(self) -> list[dict]:
        """One row per call path: count, total and self seconds."""
        rows: list[dict] = []

        def walk(node, prefix):
            for nid, child in node[3].items():
                path = prefix + (self.names[nid],)
                rows.append(
                    {
                        "path": "/".join(path),
                        "count": child[0],
                        "total_s": child[1],
                        "self_s": child[1] - child[2],
                    }
                )
                walk(child, path)

        walk(self.root, ())
        return rows

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, self seconds, and total seconds of
        outermost occurrences (a span nested in one of its own name is not
        counted twice in the total)."""
        out: dict[str, dict] = {}

        def walk(node, open_names):
            for nid, child in node[3].items():
                name = self.names[nid]
                row = out.setdefault(name, {"count": 0, "self_s": 0.0, "total_s": 0.0})
                row["count"] += child[0]
                row["self_s"] += child[1] - child[2]
                if name not in open_names:
                    row["total_s"] += child[1]
                walk(child, open_names | {name})

        walk(self.root, frozenset())
        return out

    def write_spans(self, path) -> int:
        """Dump the raw spans as gzip'd columnar JSON; returns the count."""
        payload = {
            "schema": "bench-spans/1",
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return len(self.span_name)


class _Span:
    __slots__ = ("_tracer", "_nid")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> None:
        self._tracer.begin(self._nid)

    def __exit__(self, *exc_info) -> None:
        self._tracer.end()


#: (module, dotted attribute, span name).  Public callables only; the
#: tiny per-candidate predicates (``quick_reject``, ``can_ever_fit``,
#: ``dependency_satisfied``) are left unwrapped because a span costs more
#: than they do and their time belongs to the pass that calls them.
_TARGETS = (
    # workloads / system construction (reached inside run_esp_configuration
    # and the service backend as well as from the replay scenarios)
    ("repro.workloads", "Workload.submit_to", "workloads.submit"),
    ("repro.experiments.runner", "make_esp_workload", "workloads.generate"),
    ("repro.service", "PolicyCore.__init__", "system.construct"),
    # sim
    ("repro", "TraceLog.record", "sim.trace_record"),
    # rms
    ("repro", "Server.submit", "rms.submit"),
    ("repro", "Server.start_job", "rms.start_job"),
    ("repro", "Server.complete_job", "rms.complete_job"),
    ("repro", "Server.abort_job", "rms.complete_job"),
    ("repro", "Server.dyn_request", "rms.dyn_request"),
    ("repro", "Server.grant_dynamic", "rms.grant_dynamic"),
    ("repro", "Server.reject_dynamic", "rms.reject_dynamic"),
    ("repro", "Server.dyn_free", "rms.dyn_free"),
    ("repro", "Server.drain_finished_for_stats", "rms.stats_feed"),
    ("repro", "Server.active_jobs", "rms.stats_feed"),
    # maui
    ("repro.maui", "Prioritizer.order", "maui.prioritize"),
    ("repro.maui.scheduler", "measure_delays", "maui.delay"),
    ("repro.maui.scheduler", "plan_static", "maui.delay"),
    ("repro.maui.delay", "plan_static", "maui.delay"),
    ("repro.maui", "DFSLedger.evaluate", "maui.dfs"),
    ("repro.maui", "DFSLedger.commit", "maui.dfs"),
    # cluster
    ("repro.cluster", "AvailabilityProfile.__init__", "cluster.profile_update"),
    ("repro.cluster", "AvailabilityProfile.copy", "cluster.profile_update"),
    ("repro.cluster", "AvailabilityProfile.merge", "cluster.profile_update"),
    ("repro.cluster", "AvailabilityProfile.advance_to", "cluster.profile_update"),
    ("repro.cluster", "AvailabilityProfile.add_claim", "cluster.profile_update"),
    ("repro.cluster", "AvailabilityProfile.add_release", "cluster.profile_update"),
    ("repro.cluster", "AvailabilityProfile.earliest_fit", "cluster.earliest_fit"),
    ("repro.cluster", "AvailabilityProfile.fits_at", "cluster.fits_at"),
    ("repro.cluster", "Cluster.find_allocation", "cluster.find_allocation"),
    ("repro.cluster", "Cluster.claim", "cluster.claim_release"),
    ("repro.cluster", "Cluster.release", "cluster.claim_release"),
    # obs
    ("repro.obs", "WindowedMetrics.fold_job", "obs.fold"),
    ("repro.obs", "WindowedMetrics.on_busy_change", "obs.windows"),
    ("repro.obs", "WindowedMetrics.observe_queue_depth", "obs.windows"),
    ("repro.obs", "Telemetry.on_busy_change", "obs.windows"),
    ("repro.obs", "DecisionLedger.observe_queue", "obs.ledger"),
    ("repro.obs", "DecisionLedger.note_start", "obs.ledger"),
    ("repro.obs", "DecisionLedger.note_reservation", "obs.ledger"),
    ("repro.obs", "DecisionLedger.note_dyn_grant", "obs.ledger"),
    ("repro.obs", "DecisionLedger.note_dyn_deny", "obs.ledger"),
    ("repro.obs", "DecisionLedger.note_dyn_defer", "obs.ledger"),
    ("repro.obs", "DecisionLedger.note_slo_breach", "obs.ledger"),
    ("repro.obs", "FairnessObservatory.accrue", "obs.fairness"),
    ("repro.obs", "FairnessObservatory.sample", "obs.fairness"),
    ("repro.obs", "FairnessObservatory.finalize", "obs.fairness"),
    ("repro.obs", "SLOEngine.finalize", "obs.slo"),
    ("repro.obs", "PeriodicSampler.sample_now", "obs.sampler"),
    ("repro.obs", "PeriodicSampler.start", "obs.sampler"),
    # metrics
    ("repro", "WorkloadMetrics.from_server", "metrics.collect"),
    # service
    ("repro.service", "SimBackend.advance", "service.advance"),
    ("repro.service", "SimBackend.submit", "service.backend"),
    ("repro.service", "SimBackend.find_job", "service.backend"),
)


def _resolve(module: str, dotted: str):
    owner = importlib.import_module(module)
    *parents, attr = dotted.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def install(tracer: Tracer) -> list[str]:
    """Patch every target with its span wrapper; returns the unresolved ones.

    The child process that calls this exits after one run, so nothing is
    ever restored.
    """
    unresolved: list[str] = []
    for module, dotted, name in _TARGETS:
        try:
            owner, attr, original = _resolve(module, dotted)
        except (ImportError, AttributeError, KeyError):
            unresolved.append(f"{module}:{dotted}")
            continue
        if isinstance(original, (staticmethod, classmethod)):
            kind = type(original)
            setattr(owner, attr, kind(tracer.wrap(original.__func__, name)))
        else:
            setattr(owner, attr, tracer.wrap(original, name))

    try:
        _hook_engine(tracer)
        _hook_subscribers(tracer)
        _hook_iteration(tracer)
    except (ImportError, AttributeError) as exc:
        unresolved.append(f"hook: {exc}")
    return unresolved


def _hook_engine(tracer: Tracer) -> None:
    """Every callback queued through ``Engine.at`` becomes a ``<layer>.dispatch``
    span; distinct dispatch timestamps are counted on the way."""
    from repro import Engine

    original = Engine.at
    begin, end = tracer.begin, tracer.end

    @functools.wraps(original)
    def at(self, when, callback, *args, **kwargs):
        nid = tracer.callback_id(callback, "dispatch")

        def dispatched(*cb_args):
            if when != tracer._last_time:
                tracer._last_time = when
                tracer.counters["sim.timestamps"] += 1
            begin(nid)
            try:
                return callback(*cb_args)
            finally:
                end()

        return original(self, when, dispatched, *args, **kwargs)

    Engine.at = at

    run = Engine.run
    run_id = tracer.name_id("sim.run")

    @functools.wraps(run)
    def traced_run(self, *args, **kwargs):
        begin(run_id)
        try:
            processed = run(self, *args, **kwargs)
        finally:
            end()
        tracer.counters["sim.events"] += processed
        return processed

    Engine.run = traced_run


def _hook_subscribers(tracer: Tracer) -> None:
    """Callbacks handed over at wiring time: trace subscribers (the
    ledger's lifecycle feed) and the SLO engine's frame-close evaluation."""
    from repro import TraceLog
    from repro.obs import SLOEngine

    subscribe = TraceLog.subscribe

    @functools.wraps(subscribe)
    def traced_subscribe(self, callback):
        subscribe(self, tracer.wrap_callback(callback, "subscriber"))
        return callback

    TraceLog.subscribe = traced_subscribe

    attach = SLOEngine.attach_windows

    @functools.wraps(attach)
    def traced_attach(self, windows):
        attach(self, windows)
        windows.on_frame_close = tracer.wrap(windows.on_frame_close, "obs.slo")

    SLOEngine.attach_windows = traced_attach


def _hook_iteration(tracer: Tracer) -> None:
    """``MauiScheduler.iteration`` as a span, plus the productive-pass count:
    a pass is productive when it started, granted, rejected or reserved
    something (read from the scheduler's own public ``stats``)."""
    from repro import MauiScheduler

    original = MauiScheduler.iteration
    nid = tracer.name_id("maui.iteration")
    begin, end = tracer.begin, tracer.end
    keys = (
        "jobs_started",
        "jobs_backfilled",
        "dyn_granted",
        "dyn_rejected",
        "reservations_created",
    )

    @functools.wraps(original)
    def iteration(self):
        stats = self.stats
        before = [stats.get(k) for k in keys]
        begin(nid)
        try:
            return original(self)
        finally:
            end()
            if [stats.get(k) for k in keys] != before:
                tracer.counters["maui.productive_passes"] += 1

    MauiScheduler.iteration = iteration
