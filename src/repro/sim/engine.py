"""Deterministic discrete-event engine: binary heap + slotted calendar queue.

Design notes
------------
* Every event carries a ``(time, priority, seq)`` key.  ``priority`` orders
  simultaneous events (e.g. a job completion at time *t* must be processed
  before the scheduler iteration triggered at *t* so the scheduler sees the
  freed resources); ``seq`` is a monotone counter guaranteeing deterministic
  FIFO order among equal keys.  The dispatch order is the total order of
  these keys, *regardless of the backing queue structure*.
* Two interchangeable queue backends, selected by the ``queue`` parameter:

  - ``"heap"`` — the classic single binary heap of key tuples.  Optimal
    when nearly every event has its own timestamp (sparse regime).
  - ``"calendar"`` — a slotted calendar queue: one bucket (slot) per
    *distinct* timestamp, a small heap over the bucket times.  Events at
    one timestamp are dispatched as a batch in a single internal loop, so
    the per-event cost amortises the time lookup, the ``until`` /
    profiler checks, and replaces O(log n) heap pops with list walks.
    Optimal when many events share timestamps (dense regime: submission
    bursts, periodic samplers, synchronised completions).
  - ``"auto"`` (default) — starts on the heap and switches between the
    two based on the observed density of recently scheduled events
    (fraction landing on an already-pending timestamp).  Switching is a
    pure restructuring: the dispatch order is byte-identical in every
    mode, pinned by the randomized cross-check in
    ``tests/test_engine_calendar.py``.

* Within a calendar bucket, events are kept sorted by ``(priority, seq)``.
  Because ``seq`` is monotone, plain appends preserve the order unless an
  event of *lower* priority value arrives after one with a higher value at
  the same timestamp — only then is the bucket's remainder heapified and
  maintained as a mini-heap.  In the common case (equal priorities) a
  bucket is append-only and dispatch is a simple list walk.
* Callbacks are plain callables.  Cancellation is O(1) via tombstoning the
  :class:`EventHandle` rather than re-heapifying.  Tombstones are purged
  lazily — at the queue head by :meth:`Engine._next_time` (the single
  purge point shared by ``step``/``run``/``peek_time``), and in bulk once
  more than half the queue (beyond a small floor) is cancelled entries —
  so long runs with many cancelled boundary wakes / walltime limits keep a
  bounded queue.
* The engine never advances past events scheduled "now": scheduling at the
  current time from within a callback is allowed and runs in the same
  ``run()`` invocation (in the calendar it lands in the live bucket).
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


def _entry_key(handle: "EventHandle") -> tuple[int, int]:
    """Dispatch order of handles within one timestamp."""
    return (handle.priority, handle.seq)


#: bound once: Engine.at constructs handles via ``__new__`` plus inline
#: attribute stores instead of calling ``EventHandle.__init__``
_new_handle = EventHandle.__new__


class _Bucket:
    """One calendar slot: every pending event at a single timestamp.

    Two regimes:

    * sorted (``heaped`` False): ``entries`` holds bare
      :class:`EventHandle` objects, ascending by ``(priority, seq)`` from
      index ``pos``; dispatch walks the list, appends extend it.  The
      monotone ``seq`` keeps appends in order as long as priorities do not
      decrease — the overwhelmingly common case, which therefore pays no
      tuple wrapping and no heap discipline at all.
    * mini-heap (``heaped`` True): ``entries`` is a ``heapq`` heap of
      ``(priority, seq, handle)`` tuples and ``pos`` is 0.  Entered the
      first time an append would break the sorted order; conversion
      mutates ``entries`` *in place* so live references held by a dispatch
      loop stay valid.
    """

    __slots__ = ("entries", "pos", "heaped", "tail_prio")

    def __init__(self) -> None:
        self.entries: list = []
        self.pos = 0
        self.heaped = False
        #: priority of the last appended handle while sorted — the append
        #: fast path compares against this int instead of chasing
        #: ``entries[-1].priority`` (meaningless once ``heaped``)
        self.tail_prio = -1

    def remaining_handles(self) -> list[EventHandle]:
        """Pending handles, regardless of regime (not in dispatch order)."""
        if self.heaped:
            return [entry[2] for entry in self.entries]
        return self.entries[self.pos:]

    def convert_to_heap(self) -> None:
        """Switch the remainder to the mini-heap regime, in place."""
        self.entries[:] = [
            (h.priority, h.seq, h) for h in self.entries[self.pos:]
        ]
        self.pos = 0
        self.heaped = True
        heapq.heapify(self.entries)


class Engine:
    """Deterministic event loop with a floating-point clock (seconds)."""

    #: tombstone purges only kick in past this queue size: tiny queues are
    #: cheap to carry and compacting them would just add churn
    COMPACT_MIN_SIZE = 64
    #: adaptive mode: density is evaluated every this many schedules
    SWITCH_WINDOW = 256
    #: fraction of window schedules landing on a pending timestamp above
    #: which the heap switches to the calendar …
    DENSE_ENTER = 0.5
    #: … and below which the calendar falls back to the heap
    DENSE_EXIT = 0.125

    def __init__(self, start_time: float = 0.0, *, queue: str = "auto") -> None:
        if queue not in ("auto", "heap", "calendar"):
            raise ValueError(f"unknown queue mode {queue!r}")
        self.now: float = float(start_time)
        self._seq: int = 0
        self._running: bool = False
        self._processed: int = 0
        #: cancelled entries still sitting in the queue
        self._tombstones: int = 0
        #: cumulative compaction count (introspection for tests/benchmarks)
        self._compactions: int = 0
        #: cumulative mode switches (introspection for tests/benchmarks)
        self._switches: int = 0
        #: optional :class:`repro.obs.perf.PhaseProfiler` wrapping every
        #: callback dispatch in an ``engine_dispatch`` phase; None keeps the
        #: dispatch loop a single local-is-None check per event
        self.profiler = None
        # -- queue backends ------------------------------------------------
        self._calendar: bool = queue == "calendar"
        self._adaptive: bool = queue == "auto"
        #: heap mode: one heap of (time, priority, seq, handle)
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        #: calendar mode: time -> bucket, plus a heap of bucket times (may
        #: carry stale times whose bucket has already drained)
        self._buckets: dict[float, _Bucket] = {}
        self._times: list[float] = []
        #: physical entries across whichever backend is active
        self._size: int = 0
        # -- adaptive bookkeeping ------------------------------------------
        self._win_count = 0
        #: schedules in this window that created a *new* timestamp; the
        #: complement (count - sparse) is the dense fraction
        self._win_sparse = 0
        self._win_times: set[float] = set()  # heap-mode density probe
        self._switch_to: str | None = None
        #: >0 while a callback is on the stack via step(); switching the
        #: backend under a live dispatch loop is deferred until it unwinds
        self._dispatching = 0

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
        self._size += 1
        if self._calendar:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = bucket = _Bucket()
                heapq.heappush(self._times, time)
                self._win_sparse += 1
            entries = bucket.entries
            if bucket.heaped:
                heapq.heappush(entries, (priority, seq, handle))
            elif entries and priority < bucket.tail_prio:
                # append would break the sorted order: convert the
                # remainder to a mini-heap, in place (see _Bucket)
                bucket.convert_to_heap()
                heapq.heappush(entries, (priority, seq, handle))
            else:
                entries.append(handle)
                bucket.tail_prio = priority
        else:
            heapq.heappush(self._heap, (time, priority, seq, handle))
            if self._adaptive:
                seen = self._win_times
                if time not in seen:
                    seen.add(time)
                    self._win_sparse += 1
        if self._adaptive:
            self._win_count += 1
            if self._win_count >= self.SWITCH_WINDOW:
                self._consider_switch()
                if (
                    self._switch_to is not None
                    and not self._running
                    and self._dispatching == 0
                ):
                    self._apply_switch()
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

    # ------------------------------------------------------------------
    # adaptive mode switching
    # ------------------------------------------------------------------
    def _consider_switch(self) -> None:
        """End of a density window: decide whether to change backends."""
        ratio = 1.0 - self._win_sparse / self._win_count
        self._win_count = 0
        self._win_sparse = 0
        self._win_times.clear()
        if self._calendar:
            if ratio <= self.DENSE_EXIT:
                self._switch_to = "heap"
        elif ratio >= self.DENSE_ENTER:
            self._switch_to = "calendar"

    def _apply_switch(self) -> None:
        """Rebuild the pending queue in the other backend.

        Doubles as a compaction: cancelled entries are dropped during the
        rebuild.  Must only run when no dispatch loop holds references into
        the current backend (callers check ``_running``/``_dispatching``).
        """
        target = self._switch_to
        self._switch_to = None
        if target is None or (target == "calendar") == self._calendar:
            return
        self._switches += 1
        if target == "calendar":
            buckets: dict[float, _Bucket] = {}
            size = 0
            for time, _priority, _seq, handle in self._heap:
                if handle.cancelled:
                    handle._dequeued = True
                    continue
                bucket = buckets.get(time)
                if bucket is None:
                    buckets[time] = bucket = _Bucket()
                bucket.entries.append(handle)
                size += 1
            for bucket in buckets.values():
                bucket.entries.sort(key=_entry_key)
                bucket.tail_prio = bucket.entries[-1].priority
            times = list(buckets)
            heapq.heapify(times)
            self._heap = []
            self._buckets = buckets
            self._times = times
            self._calendar = True
        else:
            heap: list[tuple[float, int, int, EventHandle]] = []
            for time, bucket in self._buckets.items():
                for handle in bucket.remaining_handles():
                    if handle.cancelled:
                        handle._dequeued = True
                        continue
                    heap.append((time, handle.priority, handle.seq, handle))
            heapq.heapify(heap)
            self._heap = heap
            self._buckets = {}
            self._times = []
            self._calendar = False
            size = len(heap)
        self._size = size
        self._tombstones = 0

    # ------------------------------------------------------------------
    # tombstone bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A queued entry was cancelled; purge when tombstones dominate."""
        self._tombstones += 1
        if (
            self._size >= self.COMPACT_MIN_SIZE
            and self._tombstones * 2 > self._size
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the queue (O(n)).

        In-place per bucket in calendar mode, so a dispatch loop holding a
        reference to the live bucket (or its ``entries`` list) survives a
        compaction triggered by one of its own callbacks.
        """
        if self._calendar:
            size = 0
            for bucket in self._buckets.values():
                live = []
                for handle in bucket.remaining_handles():
                    if handle.cancelled:
                        handle._dequeued = True
                    else:
                        live.append(handle)
                if bucket.heaped:
                    live.sort(key=_entry_key)
                    bucket.heaped = False
                bucket.entries[:] = live
                bucket.pos = 0
                if live:
                    bucket.tail_prio = live[-1].priority
                size += len(live)
            # stale times (empty buckets) are skipped lazily by _next_time
            self._size = size
        else:
            for *_k, handle in self._heap:
                if handle.cancelled:
                    handle._dequeued = True
            self._heap = [e for e in self._heap if not e[3].cancelled]
            heapq.heapify(self._heap)
            self._size = len(self._heap)
        self._tombstones = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # queue head management — the single purge point shared by
    # step()/run()/peek_time()
    # ------------------------------------------------------------------
    def _next_time(self) -> float | None:
        """Timestamp of the next live event, discarding cancelled heads.

        Leaves the queue positioned so the next live event is at the head:
        in heap mode ``_heap[0]`` is live; in calendar mode the top of
        ``_times`` names a bucket whose head entry is live.
        """
        if self._calendar:
            times = self._times
            buckets = self._buckets
            while times:
                time = times[0]
                bucket = buckets.get(time)
                if bucket is not None:
                    entries = bucket.entries
                    if bucket.heaped:
                        while entries and entries[0][2].cancelled:
                            handle = heapq.heappop(entries)[2]
                            handle._dequeued = True
                            self._tombstones -= 1
                            self._size -= 1
                        if entries:
                            return time
                    else:
                        pos = bucket.pos
                        n = len(entries)
                        while pos < n and entries[pos].cancelled:
                            entries[pos]._dequeued = True
                            self._tombstones -= 1
                            self._size -= 1
                            pos += 1
                        bucket.pos = pos
                        if pos < n:
                            return time
                    del buckets[time]
                heapq.heappop(times)  # drained or stale timestamp
            return None
        heap = self._heap
        while heap:
            if not heap[0][3].cancelled:
                return heap[0][0]
            handle = heapq.heappop(heap)[3]
            handle._dequeued = True
            self._tombstones -= 1
            self._size -= 1
        return None

    def _pop_head(self) -> EventHandle:
        """Remove and return the head event (must follow ``_next_time``)."""
        self._size -= 1
        if not self._calendar:
            handle = heapq.heappop(self._heap)[3]
            handle._dequeued = True
            return handle
        time = self._times[0]
        bucket = self._buckets[time]
        entries = bucket.entries
        if bucket.heaped:
            handle = heapq.heappop(entries)[2]
            drained = not entries
        else:
            handle = entries[bucket.pos]
            bucket.pos += 1
            drained = bucket.pos >= len(entries)
        handle._dequeued = True
        if drained:
            del self._buckets[time]
            heapq.heappop(self._times)
        return handle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        if (
            self._switch_to is not None
            and not self._running
            and self._dispatching == 0
        ):
            self._apply_switch()
        time = self._next_time()
        if time is None:
            return False
        handle = self._pop_head()
        self.now = time
        self._processed += 1
        prof = self.profiler
        self._dispatching += 1
        try:
            if prof is None:
                handle.callback(*handle.args)
            else:
                prof.begin("engine_dispatch", sim_time=time)
                try:
                    handle.callback(*handle.args)
                finally:
                    prof.end()
        finally:
            self._dispatching -= 1
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
        # resolved once per run: the dispatch loop pays one local-is-None
        # check per event instead of an attribute lookup
        prof = self.profiler
        try:
            while True:
                if self._switch_to is not None:
                    self._apply_switch()  # batch boundary: no live refs
                time = self._next_time()
                if time is None or (until is not None and time > until):
                    break
                if batch is not None and processed >= batch:
                    return processed
                self.now = time
                if not self._calendar:
                    handle = heapq.heappop(self._heap)[3]
                    handle._dequeued = True
                    self._size -= 1
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
                    continue
                # -- calendar: drain the whole timestamp in one batch ------
                # ``until`` cannot split a batch (all events share ``time``)
                # and new same-time events land in this live bucket, so the
                # per-event work is just the walk + the callback.
                bucket = self._buckets[time]
                entries = bucket.entries
                batch_start = processed
                try:
                    while True:
                        # a batch bound met mid-timestamp leaves the rest of
                        # the bucket queued for _next_time, like the
                        # exceptional exit below; a bucket drained exactly
                        # at the bound still falls through to the ``until``
                        # check above
                        if bucket.heaped:
                            if not entries:
                                break
                            if batch is not None and processed >= batch:
                                return processed
                            handle = heapq.heappop(entries)[2]
                        else:
                            pos = bucket.pos
                            if pos >= len(entries):
                                break
                            if batch is not None and processed >= batch:
                                return processed
                            handle = entries[pos]
                            bucket.pos = pos + 1
                        # per entry, not per batch: a callback may trigger
                        # _compact(), which re-derives _size from what is
                        # still queued
                        self._size -= 1
                        handle._dequeued = True
                        if handle.cancelled:
                            self._tombstones -= 1
                            continue
                        processed += 1
                        if max_events is not None and processed > max_events:
                            raise RuntimeError(
                                f"exceeded max_events={max_events}; "
                                "runaway simulation?"
                            )
                        if prof is None:
                            handle.callback(*handle.args)
                        else:
                            prof.begin("engine_dispatch", sim_time=time)
                            try:
                                handle.callback(*handle.args)
                            finally:
                                prof.end()
                finally:
                    # exception safety: an exceptional exit leaves the
                    # partially-drained bucket for _next_time to finish
                    self._processed += processed - batch_start
                del self._buckets[time]
                heapq.heappop(self._times)  # == time (head after _next_time)
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
        return self._size - self._tombstones

    @property
    def processed(self) -> int:
        """Total number of events executed since construction."""
        return self._processed

    @property
    def heap_size(self) -> int:
        """Physical queue length, tombstones included (tests/benchmarks)."""
        return self._size

    @property
    def queue_mode(self) -> str:
        """The active backend: ``"heap"`` or ``"calendar"``."""
        return "calendar" if self._calendar else "heap"

    def peek_time(self) -> float | None:
        """Timestamp of the next pending event, or None if idle."""
        return self._next_time()

    def __repr__(self) -> str:
        return (
            f"<Engine t={self.now:.2f} pending={self.pending} "
            f"queue={self.queue_mode}>"
        )
