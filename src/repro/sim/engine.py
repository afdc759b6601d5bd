"""Deterministic discrete-event engine on a binary heap.

Design notes
------------
* Every event carries a ``(time, priority, seq)`` key.  ``priority`` orders
  simultaneous events (e.g. a job completion at time *t* must be processed
  before the scheduler iteration triggered at *t* so the scheduler sees the
  freed resources); ``seq`` is a monotone counter guaranteeing deterministic
  FIFO order among equal keys.  The dispatch order is the total order of
  these keys.  A caller that will push events later can take their
  ``seq`` values now (:meth:`Engine.reserve`, :meth:`Engine.at_reserved`)
  and so keep the order it would have had by pushing them now.
* Callbacks are plain callables.  Cancellation is O(1) via tombstoning the
  :class:`EventHandle` rather than re-heapifying.  Tombstones are purged
  lazily — at the queue head by :meth:`Engine._next_time` (the single
  purge point shared by ``step``/``run``/``peek_time``), and in bulk once
  more than half the queue (beyond a small floor) is cancelled entries —
  so long runs with many cancelled boundary wakes / walltime limits keep a
  bounded queue.
* The engine never advances past events scheduled "now": scheduling at the
  current time from within a callback is allowed and runs in the same
  ``run()`` invocation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = [
    "Engine",
    "EventHandle",
    "PRIORITY_COMPLETION",
    "PRIORITY_NORMAL",
    "PRIORITY_LIMIT",
    "PRIORITY_SCHEDULER",
]

#: Job completions / resource releases fire first at a given timestamp …
PRIORITY_COMPLETION = 0
#: … then ordinary events (submissions, dynamic requests, app completions) …
PRIORITY_NORMAL = 5
#: … then walltime-limit enforcement (so a job finishing exactly at its
#: walltime completes normally instead of being killed) …
PRIORITY_LIMIT = 7
#: … and scheduler iterations last, so they observe a settled system state.
PRIORITY_SCHEDULER = 9


class EventHandle:
    """Cancellable reference to a scheduled callback."""

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled",
        "_engine", "_dequeued",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        engine: "Engine | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine
        #: True once the engine removed this entry from its queue (fired or
        #: discarded) — a later cancel() must not count as a live tombstone
        self._dequeued = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None and not self._dequeued:
            self._engine._note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<EventHandle {name} @{self.time:.2f} p{self.priority} {state}>"


#: bound once: Engine.at constructs handles via ``__new__`` plus inline
#: attribute stores instead of calling ``EventHandle.__init__``
_new_handle = EventHandle.__new__


class Engine:
    """Deterministic event loop with a floating-point clock (seconds)."""

    #: tombstone purges only kick in past this queue size: tiny queues are
    #: cheap to carry and compacting them would just add churn
    COMPACT_MIN_SIZE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = float(start_time)
        self._seq: int = 0
        self._running: bool = False
        self._processed: int = 0
        #: one heap of (time, priority, seq, handle)
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        #: cancelled entries still sitting in the heap
        self._tombstones: int = 0
        #: cumulative compaction count (introspection for tests/benchmarks)
        self._compactions: int = 0
        #: optional :class:`repro.obs.perf.PhaseProfiler` wrapping every
        #: callback dispatch in an ``engine_dispatch`` phase; None keeps the
        #: dispatch loop a single local-is-None check per event
        self.profiler = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Scheduling in the past raises ``ValueError`` — that is always a bug
        in the caller, and silently clamping would hide causality errors.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        # inlined EventHandle construction: at() is the hottest call in the
        # simulator, and skipping the __init__ frame is worth ~100ns/event
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.priority = priority
        handle.seq = seq
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle._engine = self
        handle._dequeued = False
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    def after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.at(self.now + delay, callback, *args, priority=priority)

    def reserve(self, n: int) -> int:
        """Take ``n`` consecutive sequence numbers for later events.

        Returns the first.  An event pushed with :meth:`at_reserved` on one
        of them sorts exactly where an :meth:`at` call made now would have
        put it, however late it is pushed.
        """
        if n < 0:
            raise ValueError(f"negative reservation: {n}")
        first = self._seq
        self._seq = first + n
        return first

    def at_reserved(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at ``time`` on a sequence number
        taken by :meth:`reserve`."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        if not 0 <= seq < self._seq:
            raise ValueError(f"sequence number {seq} was not reserved")
        handle = EventHandle(time, priority, seq, callback, args, self)
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # tombstone bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A queued entry was cancelled; purge when tombstones dominate."""
        self._tombstones += 1
        size = len(self._heap)
        if size >= self.COMPACT_MIN_SIZE and self._tombstones * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap (O(n)).

        In place: a cancel from inside a callback can land here while
        :meth:`run` holds a local reference to the heap list.
        """
        heap = self._heap
        live = []
        for entry in heap:
            if entry[3].cancelled:
                entry[3]._dequeued = True
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._tombstones = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # queue head management — the single purge point shared by
    # step()/run()/peek_time()
    # ------------------------------------------------------------------
    def _next_time(self) -> float | None:
        """Timestamp of the next live event, discarding cancelled heads.

        Leaves ``_heap[0]`` live (or the heap empty).
        """
        heap = self._heap
        while heap:
            if not heap[0][3].cancelled:
                return heap[0][0]
            handle = heapq.heappop(heap)[3]
            handle._dequeued = True
            self._tombstones -= 1
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        time = self._next_time()
        if time is None:
            return False
        handle = heapq.heappop(self._heap)[3]
        handle._dequeued = True
        self.now = time
        self._processed += 1
        prof = self.profiler
        if prof is None:
            handle.callback(*handle.args)
        else:
            prof.begin("engine_dispatch", sim_time=time)
            try:
                handle.callback(*handle.args)
            finally:
                prof.end()
        return True

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        *,
        batch: int | None = None,
    ) -> int:
        """Drain the event queue.

        :param until: stop once the next event would fire strictly after this
            time (the clock is advanced to ``until`` if given).
        :param max_events: safety valve for tests; raise ``RuntimeError`` when
            exceeded so runaway event storms fail loudly instead of hanging.
        :param batch: bounded step; return *before* the event that would
            make this call run more than ``batch`` events, leaving it (and
            the clock) where they are for the next call.
        :returns: the number of events processed by this call.
        """
        if self._running:
            raise RuntimeError("Engine.run() is not reentrant")
        self._running = True
        processed = 0
        heap = self._heap
        # resolved once per run: the dispatch loop pays one local-is-None
        # check per event instead of an attribute lookup
        prof = self.profiler
        try:
            while True:
                time = self._next_time()
                if time is None or (until is not None and time > until):
                    break
                if batch is not None and processed >= batch:
                    return processed
                self.now = time
                handle = heapq.heappop(heap)[3]
                handle._dequeued = True
                self._processed += 1
                processed += 1
                if max_events is not None and processed > max_events:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                if prof is None:
                    handle.callback(*handle.args)
                else:
                    prof.begin("engine_dispatch", sim_time=time)
                    try:
                        handle.callback(*handle.args)
                    finally:
                        prof.end()
            if until is not None and until > self.now:
                self.now = until
            return processed
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._heap) - self._tombstones

    @property
    def processed(self) -> int:
        """Total number of events executed since construction."""
        return self._processed

    @property
    def heap_size(self) -> int:
        """Physical queue length, tombstones included (tests/benchmarks)."""
        return len(self._heap)

    def peek_time(self) -> float | None:
        """Timestamp of the next pending event, or None if idle."""
        return self._next_time()

    def __repr__(self) -> str:
        return f"<Engine t={self.now:.2f} pending={self.pending}>"
