"""Typed trace events emitted by the simulated batch system.

Trace events are *observations*, not control flow: the engine drives the
simulation through callbacks, while components append :class:`TraceEvent`
records to a shared :class:`TraceLog` so that tests, metrics and experiment
harnesses can reconstruct exactly what happened and when.

The log doubles as the head of the **streaming trace pipeline**
(``repro.obs``): subscribers registered with :meth:`TraceLog.subscribe` see
every event synchronously as it is recorded (in subscription order, so the
pipeline inherits the engine's determinism), and an optional ``maxlen``
turns the backing store into a bounded ring buffer for long campaigns —
subscribers still see *every* event, only the retained tail is bounded.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


class EventKind(enum.Enum):
    """Taxonomy of observable events in the batch system.

    Every kind is something the simulation did.  What an observer
    concludes about it (a ledger verdict, an SLO breach) stays in that
    observer's own record, so an instrumented run writes the same trace
    as a bare one.
    """

    # members hash by identity, in C: every trace subscriber and the
    # lifecycle counters key dicts on the kind (``Enum.__hash__`` hashes
    # the member's name in Python on each lookup)
    __hash__ = object.__hash__

    JOB_SUBMIT = "job_submit"
    JOB_START = "job_start"
    JOB_END = "job_end"
    JOB_ABORT = "job_abort"
    DYN_REQUEST = "dyn_request"
    DYN_GRANT = "dyn_grant"
    DYN_REJECT = "dyn_reject"
    DYN_RELEASE = "dyn_release"
    RESERVATION_CREATE = "reservation_create"
    BACKFILL_START = "backfill_start"
    PREEMPT = "preempt"
    SCHED_ITERATION = "sched_iteration"
    DFS_INTERVAL_ROLL = "dfs_interval_roll"
    NODE_FAIL = "node_fail"
    NODE_RECOVER = "node_recover"
    # transient fault in the TM layer: a granted allocation could not be
    # delivered to the mother superior (repro.faults); retried with backoff
    GRANT_DELIVERY_FAIL = "grant_delivery_fail"
    # paths that previously left no observation behind
    MALLEABLE_SHRINK = "malleable_shrink"
    CHECKPOINT = "checkpoint"
    MOLDABLE_START = "moldable_start"
    # operator job holds (qhold/qrls)
    JOB_HOLD = "job_hold"
    JOB_RELEASE = "job_release"
    # no longer recorded: an SLO breach lives in SLOEngine.breaches and the
    # decision ledger; the member stays while the benchmark names it
    SLO_BREACH = "slo_breach"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """A single timestamped observation.

    ``payload`` carries event-specific details (job id, node list, delay
    amounts, …) as a plain dict so traces stay serialisable.
    """

    time: float
    kind: EventKind
    payload: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # compact, log-friendly
        items = ", ".join(f"{k}={v!r}" for k, v in sorted(self.payload.items()))
        return f"<{self.kind.value} @{self.time:.2f} {items}>"


class TraceLog:
    """Ordered log of :class:`TraceEvent` records with streaming subscribers.

    :param maxlen: when given, only the newest ``maxlen`` events are
        retained (ring-buffer mode); :attr:`dropped` counts evictions and
        :attr:`total_recorded` counts everything ever recorded.  Metrics
        that replay the full trace (e.g. utilization reconstruction) need
        an unbounded log or a live telemetry feed — see
        ``docs/OBSERVABILITY.md``.
    """

    def __init__(self, maxlen: int | None = None) -> None:
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive: {maxlen}")
        self.maxlen = maxlen
        self._events: Any = [] if maxlen is None else deque(maxlen=maxlen)
        #: events evicted by the ring buffer since the last :meth:`clear`
        self.dropped: int = 0
        #: events ever recorded (including evicted ones)
        self.total_recorded: int = 0
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    # ------------------------------------------------------------------
    # recording & streaming
    # ------------------------------------------------------------------
    def record(self, time: float, kind: EventKind, **payload: Any) -> TraceEvent:
        """Append an event, fan it out to subscribers, and return it."""
        ev = TraceEvent(time=time, kind=kind, payload=payload)
        if self.maxlen is not None and len(self._events) == self.maxlen:
            self.dropped += 1
        self._events.append(ev)
        self.total_recorded += 1
        for subscriber in self._subscribers:
            subscriber(ev)
        return ev

    def subscribe(
        self, callback: Callable[[TraceEvent], None]
    ) -> Callable[[TraceEvent], None]:
        """Register a callback invoked synchronously for every new event.

        Callbacks run in subscription order on the recording (engine)
        thread, so downstream consumers observe the exact deterministic
        event order of the simulation.  Returns the callback for use as a
        decorator or an :meth:`unsubscribe` token.
        """
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Remove a previously registered subscriber (ValueError if absent)."""
        self._subscribers.remove(callback)

    @property
    def subscribers(self) -> tuple[Callable[[TraceEvent], None], ...]:
        return tuple(self._subscribers)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, idx: int) -> TraceEvent:
        return self._events[idx]

    def tail(self, n: int) -> list[TraceEvent]:
        """The newest ``n`` retained events, oldest first."""
        if n <= 0:
            return []
        events = list(self._events)
        return events[-n:]

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        """All events of the given kind, in time order."""
        return [e for e in self._events if e.kind is kind]

    def for_job(self, job_id: str) -> list[TraceEvent]:
        """All events whose payload references ``job_id``."""
        return [e for e in self._events if e.payload.get("job_id") == job_id]

    def count(self, kind: EventKind) -> int:
        """Number of events of the given kind."""
        return sum(1 for e in self._events if e.kind is kind)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
        self.total_recorded = 0
