"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import (
    Engine,
    PRIORITY_COMPLETION,
    PRIORITY_LIMIT,
    PRIORITY_NORMAL,
    PRIORITY_SCHEDULER,
)


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        fired = []
        engine.at(3.0, fired.append, "c")
        engine.at(1.0, fired.append, "a")
        engine.at(2.0, fired.append, "b")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.at(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]
        assert engine.now == 5.0

    def test_after_is_relative(self, engine):
        engine.at(10.0, lambda: engine.after(5.0, lambda: None))
        engine.run()
        assert engine.now == 15.0

    def test_same_time_priority_order(self, engine):
        fired = []
        engine.at(1.0, fired.append, "sched", priority=PRIORITY_SCHEDULER)
        engine.at(1.0, fired.append, "limit", priority=PRIORITY_LIMIT)
        engine.at(1.0, fired.append, "normal", priority=PRIORITY_NORMAL)
        engine.at(1.0, fired.append, "completion", priority=PRIORITY_COMPLETION)
        engine.run()
        assert fired == ["completion", "normal", "limit", "sched"]

    def test_same_time_same_priority_fifo(self, engine):
        fired = []
        for tag in "abcde":
            engine.at(1.0, fired.append, tag)
        engine.run()
        assert fired == list("abcde")

    def test_scheduling_in_past_rejected(self, engine):
        engine.at(10.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.at(5.0, lambda: None)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.after(-1.0, lambda: None)

    def test_schedule_at_current_time_from_callback_runs(self, engine):
        fired = []
        engine.at(1.0, lambda: engine.at(1.0, fired.append, "nested"))
        engine.run()
        assert fired == ["nested"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.at(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self, engine):
        handle = engine.at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.run() == 0

    def test_cancel_from_earlier_event(self, engine):
        fired = []
        later = engine.at(2.0, fired.append, "later")
        engine.at(1.0, later.cancel)
        engine.run()
        assert fired == []

    def test_pending_excludes_cancelled(self, engine):
        h1 = engine.at(1.0, lambda: None)
        engine.at(2.0, lambda: None)
        h1.cancel()
        assert engine.pending == 1


class TestRun:
    def test_run_until_stops_before_later_events(self, engine):
        fired = []
        engine.at(1.0, fired.append, 1)
        engine.at(10.0, fired.append, 10)
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_run_until_includes_boundary(self, engine):
        fired = []
        engine.at(5.0, fired.append, 5)
        engine.run(until=5.0)
        assert fired == [5]

    def test_run_returns_processed_count(self, engine):
        for t in (1.0, 2.0, 3.0):
            engine.at(t, lambda: None)
        assert engine.run() == 3

    def test_max_events_guard(self, engine):
        def reschedule():
            engine.after(1.0, reschedule)

        engine.at(0.0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            engine.run(max_events=50)

    def test_batch_stops_before_the_event_over_the_bound(self, engine):
        fired = []
        for t in (1.0, 1.0, 1.0, 2.0, 3.0):
            engine.at(t, fired.append, t)
        # mid-timestamp stop: the clock stays with the events already run
        assert engine.run(batch=2) == 2
        assert fired == [1.0, 1.0] and engine.now == 1.0 and engine.pending == 3
        # the bound falls on a timestamp edge: the next event is untouched
        assert engine.run(batch=1) == 1
        assert engine.now == 1.0 and engine.peek_time() == 2.0
        # ``until`` wins over the bound and still moves the clock
        assert engine.run(until=2.5, batch=1) == 1
        assert engine.run(until=2.5, batch=1) == 0 and engine.now == 2.5
        assert engine.run(batch=10) == 1
        assert fired == [1.0, 1.0, 1.0, 2.0, 3.0] and engine.pending == 0

    def test_run_not_reentrant(self, engine):
        def nested():
            engine.run()

        engine.at(1.0, nested)
        with pytest.raises(RuntimeError, match="reentrant"):
            engine.run()

    def test_step_single_event(self, engine):
        fired = []
        engine.at(1.0, fired.append, "a")
        engine.at(2.0, fired.append, "b")
        assert engine.step() is True
        assert fired == ["a"]
        assert engine.step() is True
        assert engine.step() is False

    def test_processed_counter(self, engine):
        for t in (1.0, 2.0):
            engine.at(t, lambda: None)
        engine.run()
        assert engine.processed == 2

    def test_peek_time(self, engine):
        assert engine.peek_time() is None
        h = engine.at(3.0, lambda: None)
        engine.at(7.0, lambda: None)
        assert engine.peek_time() == 3.0
        h.cancel()
        assert engine.peek_time() == 7.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
def test_property_events_fire_in_nondecreasing_time(times):
    """Regardless of insertion order, firing times never decrease."""
    engine = Engine()
    observed = []
    for t in times:
        engine.at(t, lambda t=t: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)
    assert len(observed) == len(times)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=40,
    )
)
def test_property_priority_respected_within_timestamp(events):
    """At equal times, lower priority values always fire first."""
    engine = Engine()
    fired = []
    for t, prio in events:
        engine.at(t, lambda t=t, p=prio: fired.append((t, p)), priority=prio)
    engine.run()
    assert fired == sorted(fired, key=lambda x: (x[0], x[1]))


class TestTombstoneCompaction:
    """Cancelled entries must not grow the heap without bound."""

    def test_heap_bounded_under_schedule_cancel_cycles(self):
        engine = Engine()
        live = [engine.at(1e9 + i, lambda: None) for i in range(32)]
        for i in range(10_000):
            live.pop(0).cancel()
            live.append(engine.at(2e9 + i, lambda: None))
        assert engine.pending == 32
        assert engine.heap_size < 4 * 32  # bounded, not 10k tombstones
        assert engine._compactions > 0

    def test_compaction_preserves_order_and_events(self):
        engine = Engine()
        fired = []
        keep = [engine.at(float(i), fired.append, i) for i in range(0, 200, 2)]
        drop = [engine.at(float(i), fired.append, i) for i in range(1, 200, 2)]
        for handle in drop:
            handle.cancel()
        engine.run()
        assert fired == list(range(0, 200, 2))
        assert engine.pending == 0

    def test_cancel_after_fire_is_not_a_tombstone(self):
        engine = Engine()
        handle = engine.at(1.0, lambda: None)
        engine.run()
        handle.cancel()
        assert engine._tombstones == 0
        assert engine.heap_size == 0

    def test_double_cancel_counts_once(self):
        engine = Engine()
        handle = engine.at(1.0, lambda: None)
        engine.at(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine._tombstones == 1
        assert engine.pending == 1

    def test_pending_is_consistent_during_churn(self):
        engine = Engine()
        handles = [engine.at(10.0 + i, lambda: None) for i in range(100)]
        for handle in handles[::2]:
            handle.cancel()
        assert engine.pending == 50
        engine.run()
        assert engine.pending == 0
        assert engine.processed == 50
