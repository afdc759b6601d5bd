"""The engine's dispatch order against an absolute oracle.

The engine promises one dispatch order — the total order of
``(time, priority, seq)`` over the events queued when each one fires.
These tests replay randomized schedule/cancel/run scripts through the
engine and through :class:`ModelEngine`, a list that is re-sorted for
every dispatch, and assert identical dispatch logs, clocks and ``pending``
accounting.

The scripts are generated as data first (an event tree: each fired event
may schedule children and cancel other events by id), so both sides see
byte-identical stimulus including events scheduled and cancelled *from
within* callbacks.

(The file keeps the name it had when it compared the heap against the
calendar queue PR 15 removed, so the test ids stay stable.)
"""

import random

import pytest

from repro.sim.engine import (
    Engine,
    EventHandle,
    PRIORITY_COMPLETION,
    PRIORITY_LIMIT,
    PRIORITY_NORMAL,
    PRIORITY_SCHEDULER,
)

PRIORITIES = (
    PRIORITY_COMPLETION, PRIORITY_NORMAL, PRIORITY_LIMIT, PRIORITY_SCHEDULER,
)


class ModelEngine:
    """The specification: an unordered list, sorted again for every pop."""

    def __init__(self):
        self.now, self.processed, self._queue = 0.0, 0, []

    def at(self, time, callback, *args, priority=PRIORITY_NORMAL):
        handle = EventHandle(time, priority, len(self._queue), callback, args)
        self._queue.append(handle)
        return handle

    def _live(self):
        live = [h for h in self._queue if not h.cancelled and not h._dequeued]
        return sorted(live, key=lambda h: (h.time, h.priority, h.seq))

    @property
    def pending(self):
        return len(self._live())

    def peek_time(self):
        live = self._live()
        return live[0].time if live else None

    def run(self, until=None):
        while (live := self._live()) and (until is None or live[0].time <= until):
            head = live[0]
            head._dequeued = True
            self.now = head.time
            self.processed += 1
            head.callback(*head.args)
        if until is not None and until > self.now:
            self.now = until


def make_script(rng, n_events=400, dense_times=True):
    """A randomized stimulus: root events plus per-event reactions.

    Returns ``(roots, children, cancels)`` where ``roots`` is a list of
    ``(time, priority, id)`` scheduled up front, ``children[id]`` lists
    ``(delay, priority, child_id)`` scheduled when ``id`` fires, and
    ``cancels[id]`` lists event ids to cancel when ``id`` fires.
    """
    if dense_times:
        times = [round(rng.uniform(0.0, 50.0) * 2) / 2 for _ in range(12)]
        pick_time = lambda: rng.choice(times)
        pick_delay = lambda: rng.choice([0.0, 0.0, 0.5, 1.0, rng.uniform(0.0, 5.0)])
    else:
        pick_time = lambda: rng.uniform(0.0, 1000.0)
        pick_delay = lambda: rng.uniform(0.0, 100.0)
    n_roots = max(1, n_events // 4)
    roots = [
        (pick_time(), rng.choice(PRIORITIES), i) for i in range(n_roots)
    ]
    children: dict[int, list[tuple[float, int, int]]] = {}
    cancels: dict[int, list[int]] = {}
    next_id = n_roots
    for event_id in range(n_events):
        if next_id < n_events and rng.random() < 0.6:
            kids = []
            for _ in range(rng.randrange(1, 4)):
                if next_id >= n_events:
                    break
                kids.append((pick_delay(), rng.choice(PRIORITIES), next_id))
                next_id += 1
            children[event_id] = kids
        if rng.random() < 0.25:
            cancels[event_id] = [rng.randrange(n_events) for _ in range(2)]
    return roots, children, cancels


class Driver:
    """Replays one script on one engine, recording the dispatch log."""

    def __init__(self, engine, script):
        self.engine = engine
        self.roots, self.children, self.cancels = script
        self.handles = {}
        self.log = []

    def fire(self, event_id):
        self.log.append((event_id, self.engine.now))
        for delay, priority, child_id in self.children.get(event_id, ()):
            self.handles[child_id] = self.engine.at(
                self.engine.now + delay, self.fire, child_id, priority=priority
            )
        for target in self.cancels.get(event_id, ()):
            handle = self.handles.get(target)
            if handle is not None:
                handle.cancel()

    def schedule_roots(self):
        for time, priority, event_id in self.roots:
            self.handles[event_id] = self.engine.at(
                time, self.fire, event_id, priority=priority
            )


def run_script(engine, script, segments):
    driver = Driver(engine, script)
    driver.schedule_roots()
    checkpoints = []
    for until in segments:
        engine.run(until=until)
        checkpoints.append((engine.now, engine.pending, engine.peek_time()))
    engine.run()
    checkpoints.append((engine.now, engine.pending, engine.processed))
    return driver.log, checkpoints


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("seed", range(12))
def test_randomized_dispatch_equivalence(seed, dense):
    script = make_script(random.Random(seed), dense_times=dense)
    segments = sorted(random.Random(seed + 1000).uniform(0.0, 60.0) for _ in range(3))
    engine = Engine()
    assert run_script(engine, script, segments) == run_script(
        ModelEngine(), script, segments
    )
    assert engine.heap_size == 0  # drained: no tombstone left behind


def test_dispatch_log_matches_key_order():
    # the log must equal sorting the fired events by (time, priority, seq).
    # Only strictly positive child delays: every event then exists in the
    # queue before its timestamp arrives, the one regime where global key
    # order is the right oracle (a zero-delay child scheduled mid-timestamp
    # can legitimately fire after an earlier-fired event with a larger key).
    rng = random.Random(99)
    roots, children, cancels = make_script(rng, dense_times=True)
    children = {
        parent: [(max(delay, 0.5), priority, child) for delay, priority, child in kids]
        for parent, kids in children.items()
    }
    script = (roots, children, cancels)
    engine = Engine()
    driver = Driver(engine, script)
    fired_keys = {}
    original_fire = driver.fire

    def instrumented(event_id):
        handle = driver.handles[event_id]
        fired_keys[event_id] = (handle.time, handle.priority, handle.seq)
        original_fire(event_id)

    driver.fire = instrumented
    driver.schedule_roots()
    engine.run()
    logged = [event_id for event_id, _now in driver.log]
    assert logged == sorted(logged, key=lambda i: fired_keys[i])


def test_mid_batch_cancellation_of_later_same_time_event():
    # an event cancels a sibling at the same timestamp that has not fired
    # yet — the sibling must be skipped
    engine = Engine()
    log = []
    victim = engine.at(5.0, lambda: log.append("victim"), priority=PRIORITY_LIMIT)
    engine.at(5.0, lambda: (log.append("killer"), victim.cancel()))
    engine.at(5.0, lambda: log.append("bystander"), priority=PRIORITY_SCHEDULER)
    engine.run()
    assert log == ["killer", "bystander"]
    assert engine.pending == 0
    assert engine.heap_size == 0


def test_same_time_rescheduling_lands_in_live_batch():
    # scheduling at `now` from a callback runs within the same run()
    engine = Engine()
    log = []

    def chain(depth):
        log.append(depth)
        if depth < 5:
            engine.at(engine.now, chain, depth + 1)

    engine.at(1.0, chain, 0)
    processed = engine.run()
    assert log == list(range(6))
    assert processed == 6


def test_pending_accounting_with_cancellations():
    engine = Engine()
    handles = [engine.at(float(i % 5), lambda: None) for i in range(100)]
    assert engine.pending == 100
    assert engine.heap_size == 100
    for handle in handles[::2]:
        handle.cancel()
    assert engine.pending == 50
    engine.run()
    assert engine.pending == 0
    assert engine.heap_size == 0
    assert engine.processed == 50


def test_pending_exact_after_compaction_inside_a_calendar_batch():
    # the PR 12 regression (found in the calendar queue's batch loop, hence
    # the name): a callback cancels enough later events to trigger
    # _compact() while run() is mid-loop; ``pending`` must stay
    # len(heap) - tombstones, and run() must keep draining the compacted heap
    engine = Engine()
    doomed = [engine.at(10.0, lambda: None) for _ in range(100)]
    engine.at(1.0, lambda: None)
    engine.at(1.0, lambda: [handle.cancel() for handle in doomed])
    engine.run(until=5.0)
    assert engine._compactions > 0
    assert engine.pending == 0 and engine.heap_size == 0
    assert engine.peek_time() is None

    # same shape with survivors: pending is the live count, not fewer, and
    # the run that compacted goes on to dispatch them
    engine = Engine()
    doomed = [engine.at(10.0, lambda: None) for _ in range(100)]
    live = [engine.at(20.0, lambda: None) for _ in range(7)]
    engine.at(1.0, lambda: None)
    engine.at(1.0, lambda: [handle.cancel() for handle in doomed])
    engine.run(until=5.0)
    assert engine._compactions > 0
    assert engine.pending == engine.heap_size == len(live)
    assert engine.peek_time() == 20.0
    assert engine.run() == len(live)
    assert engine.pending == 0

    # and within one run(): the loop's reference to the heap survives
    engine = Engine()
    doomed = [engine.at(10.0, lambda: None) for _ in range(100)]
    fired = []
    engine.at(20.0, fired.append, "after")
    engine.at(1.0, lambda: [handle.cancel() for handle in doomed])
    assert engine.run() == 2 and fired == ["after"]
    assert engine._compactions > 0 and engine.pending == 0
