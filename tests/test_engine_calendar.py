"""Calendar-queue vs binary-heap equivalence (the engine's bit-identity pin).

The engine promises one dispatch order — the total order of
``(time, priority, seq)`` — regardless of the backing queue structure.
These tests replay identical randomized schedule/cancel/run scripts
through a pure-heap engine, a pure-calendar engine, and the adaptive
engine, and assert identical dispatch logs, clocks, and ``pending`` /
``heap_size`` accounting.

The scripts are generated as data first (an event tree: each fired event
may schedule children and cancel other events by id), so all engines see
byte-identical stimulus including events scheduled *from within*
callbacks — the case that exercises live-bucket appends, mid-batch
cancellation, and deferred mode switches.
"""

import random

import pytest

from repro.sim.engine import (
    Engine,
    PRIORITY_COMPLETION,
    PRIORITY_LIMIT,
    PRIORITY_NORMAL,
    PRIORITY_SCHEDULER,
)

PRIORITIES = (
    PRIORITY_COMPLETION, PRIORITY_NORMAL, PRIORITY_LIMIT, PRIORITY_SCHEDULER,
)


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
    checkpoints.append(
        (engine.now, engine.pending, engine.heap_size, engine.processed)
    )
    return driver.log, checkpoints


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("seed", range(12))
def test_randomized_dispatch_equivalence(seed, dense):
    script = make_script(random.Random(seed), dense_times=dense)
    segments = sorted(random.Random(seed + 1000).uniform(0.0, 60.0) for _ in range(3))
    results = {}
    for mode in ("heap", "calendar", "auto"):
        log, checkpoints = run_script(Engine(queue=mode), script, segments)
        results[mode] = (log, checkpoints)
    assert results["calendar"] == results["heap"]
    assert results["auto"] == results["heap"]


def test_dispatch_log_matches_key_order():
    # the log must equal sorting the fired events by (time, priority, seq) —
    # not merely be mode-consistent.  Only strictly positive child delays:
    # every event then exists in the queue before its timestamp arrives, the
    # one regime where global key order is the right oracle (a zero-delay
    # child scheduled mid-batch can legitimately fire after an
    # earlier-fired event with a larger key).
    rng = random.Random(99)
    roots, children, cancels = make_script(rng, dense_times=True)
    children = {
        parent: [(max(delay, 0.5), priority, child) for delay, priority, child in kids]
        for parent, kids in children.items()
    }
    script = (roots, children, cancels)
    engine = Engine(queue="calendar")
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


def test_adaptive_switches_both_ways_without_reordering():
    # a dense phase followed by a sparse phase must cross both thresholds;
    # the dispatch order still matches the pure heap
    def stimulus(engine):
        driver_log = []
        for i in range(600):
            engine.at(
                float(i % 10),
                lambda i=i: driver_log.append((i, engine.now)),
                priority=PRIORITIES[i % 4],
            )
        engine.run(until=20.0)
        for i in range(600, 1200):
            engine.at(
                20.0 + i / 7.0,
                lambda i=i: driver_log.append((i, engine.now)),
            )
        engine.run()
        return driver_log

    auto = Engine(queue="auto")
    auto_log = stimulus(auto)
    heap_log = stimulus(Engine(queue="heap"))
    assert auto_log == heap_log
    assert auto._switches >= 2
    assert auto.queue_mode == "heap"  # sparse tail switched it back


def test_mid_batch_cancellation_of_later_same_time_event():
    # an event cancels a sibling in the same timestamp batch that has not
    # fired yet — the sibling must be skipped in every mode
    for mode in ("heap", "calendar"):
        engine = Engine(queue=mode)
        log = []
        victim = engine.at(5.0, lambda: log.append("victim"), priority=PRIORITY_LIMIT)
        engine.at(5.0, lambda: (log.append("killer"), victim.cancel()))
        engine.at(5.0, lambda: log.append("bystander"), priority=PRIORITY_SCHEDULER)
        engine.run()
        assert log == ["killer", "bystander"], mode
        assert engine.pending == 0
        assert engine.heap_size == 0


def test_same_time_rescheduling_lands_in_live_batch():
    # scheduling at `now` from a callback runs within the same run() in
    # every mode, even when the batch for that timestamp is mid-drain
    for mode in ("heap", "calendar"):
        engine = Engine(queue=mode)
        log = []

        def chain(depth):
            log.append(depth)
            if depth < 5:
                engine.at(engine.now, chain, depth + 1)

        engine.at(1.0, chain, 0)
        processed = engine.run()
        assert log == list(range(6)), mode
        assert processed == 6


def test_pending_accounting_with_cancellations():
    for mode in ("heap", "calendar"):
        engine = Engine(queue=mode)
        handles = [engine.at(float(i % 5), lambda: None) for i in range(100)]
        assert engine.pending == 100
        assert engine.heap_size == 100
        for handle in handles[::2]:
            handle.cancel()
        assert engine.pending == 50, mode
        engine.run()
        assert engine.pending == 0
        assert engine.heap_size == 0
        assert engine.processed == 50


def test_forced_calendar_mode_stays_calendar():
    engine = Engine(queue="calendar")
    for i in range(1000):
        engine.at(float(i), lambda: None)  # maximally sparse
    engine.run()
    assert engine.queue_mode == "calendar"
    assert engine._switches == 0


def test_pending_exact_after_compaction_inside_a_calendar_batch():
    # a callback in a timestamp batch cancels enough later events to trigger
    # _compact(), which re-derives the queue size from what is still queued;
    # the batch must not subtract its consumed entries a second time
    engine = Engine(queue="calendar")
    doomed = [engine.at(10.0, lambda: None) for _ in range(100)]
    engine.at(1.0, lambda: None)
    engine.at(1.0, lambda: [handle.cancel() for handle in doomed])
    engine.run(until=5.0)
    assert engine._compactions > 0
    assert engine.pending == 0
    assert engine.peek_time() is None

    # same shape with survivors: pending is the live count, not fewer
    engine = Engine(queue="calendar")
    doomed = [engine.at(10.0, lambda: None) for _ in range(100)]
    live = [engine.at(20.0, lambda: None) for _ in range(7)]
    engine.at(1.0, lambda: None)
    engine.at(1.0, lambda: [handle.cancel() for handle in doomed])
    engine.run(until=5.0)
    assert engine._compactions > 0
    assert engine.pending == len(live)
    assert engine.peek_time() == 20.0
    assert engine.run() == len(live)
    assert engine.pending == 0
