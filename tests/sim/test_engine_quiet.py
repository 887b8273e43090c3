"""Quiet steps: engine-ordered work that is not an event."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def _sim_with_log():
    sim = Simulator()
    log = []
    sim.register("event", lambda name: log.append((sim.now, name)))
    return sim, log


class TestOrdering:
    def test_runs_where_an_event_queued_at_the_same_moment_would(self):
        sim, log = _sim_with_log()
        sim.schedule_at_key(10.0, "event", ("queued before",))
        sim.schedule_quiet(10.0, lambda: log.append((sim.now, "quiet")))
        sim.schedule_at_key(10.0, "event", ("queued after",))
        sim.schedule_at_key(5.0, "event", ("earlier",))
        sim.run_until(20.0)
        assert log == [
            (5.0, "earlier"),
            (10.0, "queued before"),
            (10.0, "quiet"),
            (10.0, "queued after"),
        ]

    def test_quiet_steps_at_one_instant_run_in_queue_order(self):
        sim, log = _sim_with_log()

        def chain(name, remaining):
            log.append((sim.now, name))
            if remaining:
                sim.schedule_quiet(sim.now + 1.0, lambda: chain(name, remaining - 1))

        sim.schedule_quiet(0.0, lambda: chain("a", 2))
        sim.schedule_quiet(0.0, lambda: chain("b", 2))
        sim.run_until(5.0)
        assert [name for _, name in log] == ["a", "b"] * 3

    def test_run_until_settles_up_to_its_end_and_no_further(self):
        sim, log = _sim_with_log()
        sim.schedule_quiet(3.0, lambda: log.append((sim.now, "at end")))
        sim.schedule_quiet(3.5, lambda: log.append((sim.now, "after")))
        sim.run_until(3.0)
        assert log == [(3.0, "at end")] and sim.now == 3.0
        sim.run_until(4.0)
        assert log[-1] == (3.5, "after")

    def test_a_step_may_queue_a_later_event(self):
        sim, log = _sim_with_log()
        sim.schedule_quiet(1.0, lambda: sim.schedule_at_key(2.0, "event", ("spawned",)))
        sim.schedule_quiet(3.0, lambda: log.append((sim.now, "quiet")))
        sim.run_until(5.0)
        assert log == [(2.0, "spawned"), (3.0, "quiet")]


class TestBookkeeping:
    def test_not_an_event(self):
        sim, log = _sim_with_log()
        traced = []
        sim.on_event = lambda time, label: traced.append(label)
        sim.schedule_quiet(1.0, lambda: log.append((sim.now, "quiet")))
        sim.run_until(2.0)
        assert log == [(1.0, "quiet")]
        assert sim.events_fired == 0 and sim.pending_count == 0 and traced == []
        assert sim.state_dict()["queue"] == []

    def test_cancel_by_clearing_the_callback(self):
        sim, log = _sim_with_log()
        entry = sim.schedule_quiet(1.0, lambda: log.append("quiet"))
        entry[3] = None
        sim.run_until(2.0)
        assert log == []

    def test_step_runs_a_quiet_step_when_no_event_is_left(self):
        sim, log = _sim_with_log()
        sim.schedule_quiet(1.0, lambda: log.append("quiet"))
        assert sim.step() is True and log == ["quiet"]
        assert sim.step() is False

    def test_position_survives_a_restore(self):
        # A quiet step re-queued at its stored position runs before an
        # event queued after it, exactly as in the original run.
        def build():
            sim, log = _sim_with_log()
            sim.schedule_at_key(10.0, "event", ("queued before",))
            return sim, log

        original, original_log = build()
        entry = original.schedule_quiet(10.0, lambda: original_log.append("quiet"))
        original.schedule_at_key(10.0, "event", ("queued after",))
        state, position = original.state_dict(), entry[:3]
        original.run_until(20.0)

        restored, restored_log = build()
        restored.load_state_dict(state)
        time, seq, tie = position
        restored.schedule_quiet(time, lambda: restored_log.append("quiet"), (seq, tie))
        restored.run_until(20.0)
        assert restored_log == original_log

    def test_restore_discards_quiet_steps_queued_before_it(self):
        sim, log = _sim_with_log()
        state = Simulator().state_dict()
        sim.schedule_quiet(1.0, lambda: log.append("stale"))
        sim.load_state_dict(state)
        sim.run_until(2.0)
        assert log == []


class TestMisuse:
    def test_cannot_queue_in_the_past(self):
        sim, _ = _sim_with_log()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_quiet(4.0, lambda: None)

    def test_step_may_not_queue_an_event_ahead_of_the_firing_one(self):
        sim, _ = _sim_with_log()
        sim.schedule_at_key(10.0, "event", ("firing",))
        sim.schedule_quiet(5.0, lambda: sim.schedule_at_key(7.0, "event", ("ahead",)))
        with pytest.raises(SimulationError, match="ahead of"):
            sim.step()

    def test_step_may_not_cancel_the_firing_event(self):
        sim, _ = _sim_with_log()
        handle = sim.schedule_at_key(10.0, "event", ("firing",))
        sim.schedule_quiet(5.0, handle.cancel)
        with pytest.raises(SimulationError, match="cancelled"):
            sim.step()
