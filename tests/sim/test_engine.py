"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


@pytest.fixture
def order():
    """Tags fired through the ``"log"`` key, in firing order."""
    return []


@pytest.fixture
def sim(order):
    """A fresh simulator with a ``"log"`` and a ``"noop"`` key."""
    sim = Simulator()
    sim.register("log", order.append)
    sim.register("noop", lambda: None)
    return sim


class TestScheduling:
    def test_events_fire_in_time_order(self, sim, order):
        sim.schedule_key(30.0, "log", ("late",))
        sim.schedule_key(10.0, "log", ("early",))
        sim.run_until(100.0)
        assert order == ["early", "late"]

    def test_ties_break_by_scheduling_order(self, sim, order):
        sim.schedule_key(10.0, "log", ("first",))
        sim.schedule_key(10.0, "log", ("second",))
        sim.run_until(100.0)
        assert order == ["first", "second"]

    def test_now_reflects_event_time_inside_callback(self, sim):
        seen = []
        sim.register("now", lambda: seen.append(sim.now))
        sim.schedule_key(25.0, "now")
        sim.run_until(100.0)
        assert seen == [25.0]

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run_until(500.0)
        assert sim.now == 500.0

    def test_callback_may_schedule_at_current_instant(self, sim, order):
        def outer():
            order.append("outer")
            sim.schedule_key(0.0, "log", ("inner",))

        sim.register("outer", outer)
        sim.schedule_key(10.0, "outer")
        sim.run_until(100.0)
        assert order == ["outer", "inner"]

    def test_events_beyond_horizon_do_not_fire(self, sim, order):
        sim.schedule_key(100.0, "log", (1,))
        sim.run_until(99.0)
        assert order == []
        sim.run_until(101.0)
        assert order == [1]


class TestValidation:
    def test_scheduling_into_the_past_raises(self, sim):
        sim.run_until(50.0)
        with pytest.raises(SimulationError):
            sim.schedule_at_key(10.0, "noop")

    def test_run_until_backwards_raises(self, sim):
        sim.run_until(50.0)
        with pytest.raises(SimulationError):
            sim.run_until(10.0)

    def test_reentrant_run_until_raises(self, sim):
        def bad():
            sim.run_until(100.0)

        sim.register("bad", bad)
        sim.schedule_key(10.0, "bad")
        with pytest.raises(SimulationError):
            sim.run_until(50.0)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim, order):
        handle = sim.schedule_key(10.0, "log", (1,))
        handle.cancel()
        sim.run_until(100.0)
        assert order == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule_key(10.0, "noop")
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_count_ignores_cancelled(self, sim):
        h1 = sim.schedule_key(10.0, "noop")
        sim.schedule_key(20.0, "noop")
        h1.cancel()
        assert sim.pending_count == 1


class TestPeriodic:
    @pytest.fixture
    def ticks(self, sim):
        fired = []
        sim.register("tick", lambda: fired.append(sim.now))
        return fired

    def test_every_fires_repeatedly(self, sim, ticks):
        sim.every_key(10.0, "tick")
        sim.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_every_with_explicit_start(self, sim, ticks):
        sim.every_key(10.0, "tick", start=5.0)
        sim.run_until(30.0)
        assert ticks == [5.0, 15.0, 25.0]

    def test_cancelling_control_handle_stops_recurrence(self, sim, ticks):
        control = sim.every_key(10.0, "tick")
        sim.run_until(25.0)
        control.cancel()
        sim.run_until(100.0)
        assert ticks == [10.0, 20.0]


class TestStepAndPeek:
    def test_peek_returns_next_time(self, sim):
        sim.schedule_key(42.0, "noop")
        assert sim.peek_time() == 42.0

    def test_peek_empty_returns_none(self, sim):
        assert sim.peek_time() is None

    def test_step_fires_single_event(self, sim, order):
        sim.schedule_key(10.0, "log", (1,))
        sim.schedule_key(20.0, "log", (2,))
        assert sim.step() is True
        assert order == [1]
        assert sim.now == 10.0

    def test_step_on_empty_queue_returns_false(self, sim):
        assert sim.step() is False

    def test_run_drains_everything(self, sim, order):
        sim.schedule_key(10.0, "log", (1,))
        sim.schedule_key(20.0, "log", (2,))
        sim.run()
        assert order == [1, 2]

    def test_events_fired_counter(self, sim):
        sim.schedule_key(1.0, "noop")
        sim.schedule_key(2.0, "noop")
        sim.run()
        assert sim.events_fired == 2


class TestFiredAndCancelledCounters:
    def test_cancelled_events_do_not_count_as_fired(self, sim):
        sim.schedule_key(1.0, "noop")
        handle = sim.schedule_key(2.0, "noop")
        handle.cancel()
        sim.run_until(10.0)
        assert sim.events_fired == 1
        assert sim.events_cancelled == 1

    def test_cancelled_counter_via_step_drain(self, sim):
        handle = sim.schedule_key(1.0, "noop")
        handle.cancel()
        assert sim.step() is False  # only a cancelled handle was queued
        assert sim.events_fired == 0
        assert sim.events_cancelled == 1

    def test_cancelled_counter_via_peek(self, sim):
        sim.schedule_key(1.0, "noop").cancel()
        sim.schedule_key(2.0, "noop")
        assert sim.peek_time() == 2.0
        assert sim.events_cancelled == 1
        assert sim.events_fired == 0

    def test_counters_start_at_zero(self, sim):
        assert sim.events_fired == 0
        assert sim.events_cancelled == 0

    def test_each_cancellation_counted_once(self, sim):
        handles = [sim.schedule_key(float(i), "noop") for i in range(1, 4)]
        for handle in handles:
            handle.cancel()
            handle.cancel()  # idempotent cancel must not double-count
        sim.run_until(10.0)
        assert sim.events_cancelled == 3
        assert sim.events_fired == 0

    def test_mixed_fired_and_cancelled(self, sim, order):
        sim.schedule_key(1.0, "log", (1,))
        sim.schedule_key(2.0, "log", (2,)).cancel()
        sim.schedule_key(3.0, "log", (3,))
        sim.run_until(10.0)
        assert order == [1, 3]
        assert sim.events_fired == 2
        assert sim.events_cancelled == 1


class TestEventHandleContract:
    def test_repr_pending_state(self, sim):
        handle = sim.schedule_key(90.0, "noop", label="webcam")
        assert repr(handle) == "EventHandle('webcam', at 90.0s)"

    def test_repr_cancelled_state(self, sim):
        handle = sim.schedule_key(90.0, "noop", label="webcam")
        handle.cancel()
        assert repr(handle) == "EventHandle('webcam', cancelled)"

    def test_same_instant_ties_break_by_scheduling_order(self, sim, order):
        # The determinism rule from the module docstring: ties in time
        # break by a monotone sequence number, never by label or hash.
        for name in ("a", "b", "c", "d"):
            sim.schedule_key(10.0, "log", (name,), label=name)
        sim.run_until(10.0)
        assert order == ["a", "b", "c", "d"]

    def test_same_instant_spawned_events_run_after_existing_ties(self, sim, order):
        def first():
            order.append("first")
            sim.schedule_key(0.0, "log", ("spawned",))

        sim.register("first", first)
        sim.schedule_key(10.0, "first")
        sim.schedule_key(10.0, "log", ("second",))
        sim.run_until(10.0)
        assert order == ["first", "second", "spawned"]

    def test_cancelling_a_tie_preserves_remaining_order(self, sim, order):
        sim.schedule_key(10.0, "log", ("a",))
        doomed = sim.schedule_key(10.0, "log", ("b",))
        sim.schedule_key(10.0, "log", ("c",))
        doomed.cancel()
        sim.run_until(10.0)
        assert order == ["a", "c"]


class TestEngineTracer:
    def test_tracer_records_span_per_fired_label(self, sim):
        from repro.telemetry import SpanTracer

        sim.tracer = SpanTracer()
        sim.schedule_key(1.0, "noop", label="tick")
        sim.schedule_key(2.0, "noop", label="tick")
        sim.schedule_key(3.0, "noop")
        sim.run_until(10.0)
        assert sim.tracer.counts() == {"engine.tick": 2, "engine.unlabeled": 1}

    def test_tracer_skips_cancelled_events(self, sim):
        from repro.telemetry import SpanTracer

        sim.tracer = SpanTracer()
        sim.schedule_key(1.0, "noop", label="tick").cancel()
        sim.run_until(10.0)
        assert sim.tracer.counts() == {}

    def test_tracer_records_even_when_callback_raises(self, sim):
        from repro.telemetry import SpanTracer

        sim.tracer = SpanTracer()

        def boom():
            raise RuntimeError("x")

        sim.register("boom", boom)
        sim.schedule_key(1.0, "boom", label="boom")
        with pytest.raises(RuntimeError):
            sim.run_until(10.0)
        assert sim.tracer.counts() == {"engine.boom": 1}
