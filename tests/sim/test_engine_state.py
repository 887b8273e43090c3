"""Snapshot/restore of the discrete-event engine.

The engine only serialises *key-registered* work: every queue entry is
re-materialised from ``(key, args)`` against the registry of the
restoring process, never by pickling a closure.  These tests pin the
round-trip contract, the refusals of snapshots that name unknown work,
and the cancelled-entry heap compaction that keeps long campaigns from
dragging tombstones.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator


def _twin(log):
    """A simulator whose registered callbacks append to ``log``."""
    sim = Simulator()
    sim.register("tick", lambda tag: log.append((sim.now, "tick", tag)))
    sim.register("beat", lambda: log.append((sim.now, "beat")))
    return sim


class TestRoundTrip:
    def test_pending_events_rematerialise(self):
        log1, log2 = [], []
        sim1 = _twin(log1)
        sim1.schedule_key(10.0, "tick", args=("a",), label="tick-a")
        sim1.schedule_key(30.0, "tick", args=("b",), label="tick-b")
        sim1.schedule_key(50.0, "beat", label="beat")
        sim1.run_until(20.0)

        sim2 = _twin(log2)
        sim2.load_state_dict(sim1.state_dict())
        assert sim2.now == 20.0
        assert sim2.pending_count == sim1.pending_count

        sim1.run_until(100.0)
        sim2.run_until(100.0)
        assert log2 == [entry for entry in log1 if entry[0] > 20.0]

    def test_tie_break_order_survives(self):
        log1, log2 = [], []
        sim1 = _twin(log1)
        for tag in ("first", "second", "third"):
            sim1.schedule_key(10.0, "tick", args=(tag,))
        sim2 = _twin(log2)
        sim2.load_state_dict(sim1.state_dict())
        sim1.run_until(20.0)
        sim2.run_until(20.0)
        assert log1 == log2 == [
            (10.0, "tick", "first"),
            (10.0, "tick", "second"),
            (10.0, "tick", "third"),
        ]

    def test_counters_survive(self):
        sim1 = _twin([])
        sim1.schedule_key(5.0, "beat")
        handle = sim1.schedule_key(15.0, "beat")
        handle.cancel()
        sim1.run_until(10.0)
        sim2 = _twin([])
        sim2.load_state_dict(sim1.state_dict())
        assert sim2.events_fired == sim1.events_fired
        assert sim2.events_cancelled == sim1.events_cancelled
        assert sim2.heap_compactions == sim1.heap_compactions

    def test_periodic_task_resumes_cadence(self):
        log1, log2 = [], []
        sim1 = _twin(log1)
        sim1.every_key(10.0, "beat", start=5.0, label="heartbeat")
        sim1.run_until(17.0)

        sim2 = _twin(log2)
        sim2.load_state_dict(sim1.state_dict())
        sim1.run_until(40.0)
        sim2.run_until(40.0)
        assert [t for t, *_ in log1] == [5.0, 15.0, 25.0, 35.0]
        assert log2 == [entry for entry in log1 if entry[0] > 17.0]

    def test_cancelled_periodic_task_stays_cancelled(self):
        log = []
        sim1 = _twin([])
        task = sim1.every_key(10.0, "beat", start=5.0)
        sim1.run_until(7.0)
        task.cancel()

        sim2 = _twin(log)
        sim2.load_state_dict(sim1.state_dict())
        sim2.run_until(100.0)
        assert log == []
        assert sim2.periodic_task(task.task_id).cancelled

    def test_load_replaces_construction_time_schedules(self):
        """The snapshot is the whole truth: stray schedules are wiped."""
        log = []
        sim1 = _twin([])
        sim1.schedule_key(30.0, "beat")

        sim2 = _twin(log)
        sim2.schedule_key(10.0, "tick", args=("stray",))
        sim2.load_state_dict(sim1.state_dict())
        sim2.run_until(100.0)
        assert log == [(30.0, "beat")]


class TestRefusals:
    def test_cancelled_closure_tombstone_is_fine(self):
        # Builds that still queued closures stored their cancelled
        # tombstones with a null key; such a snapshot still loads.
        sim = Simulator()
        sim.register("doomed", lambda: None)
        sim.schedule_key(10.0, "doomed", label="doomed").cancel()
        state = sim.state_dict()
        state["queue"][0]["key"] = None
        sim2 = Simulator()
        sim2.load_state_dict(state)
        assert sim2.state_dict() == state
        sim2.run_until(100.0)
        assert sim2.events_fired == 0
        assert sim2.events_cancelled == 1

    def test_unregistered_key_blocks_load(self):
        sim1 = Simulator()
        sim1.register("known", lambda: None)
        sim1.schedule_key(10.0, "known")
        state = sim1.state_dict()
        sim2 = Simulator()
        with pytest.raises(SimulationError, match="known"):
            sim2.load_state_dict(state)

    def test_version_mismatch_blocks_load(self):
        sim = Simulator()
        state = sim.state_dict()
        state["version"] = 99
        with pytest.raises(SimulationError, match="version"):
            Simulator().load_state_dict(state)

    def test_schedule_key_requires_registration(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="unknown"):
            sim.schedule_key(10.0, "unknown")


class TestHeapCompaction:
    def test_majority_cancelled_triggers_compaction(self):
        sim = Simulator()
        sim.register("noop", lambda i: None)
        handles = [sim.schedule_key(float(i + 1), "noop", args=(i,)) for i in range(16)]
        assert sim.heap_compactions == 0
        for handle in handles[:12]:
            handle.cancel()
        assert sim.heap_compactions >= 1
        assert sim.pending_count == 4

    def test_survivors_fire_in_order_after_compaction(self):
        fired = []
        sim = Simulator()
        sim.register("noop", lambda i: fired.append(i))
        handles = [sim.schedule_key(float(i + 1), "noop", args=(i,)) for i in range(16)]
        for handle in handles[:12]:
            handle.cancel()
        sim.run_until(100.0)
        assert fired == [12, 13, 14, 15]
        assert sim.events_cancelled == 12

    def test_small_queues_never_compact(self):
        sim = Simulator()
        sim.register("noop", lambda: None)
        handles = [sim.schedule_key(float(i + 1), "noop") for i in range(4)]
        for handle in handles:
            handle.cancel()
        assert sim.heap_compactions == 0

    def test_compaction_counter_round_trips(self):
        sim = Simulator()
        sim.register("noop", lambda i: None)
        handles = [sim.schedule_key(float(i + 1), "noop", args=(i,)) for i in range(16)]
        for handle in handles[:12]:
            handle.cancel()
        compactions = sim.heap_compactions
        assert compactions >= 1
        sim2 = Simulator()
        sim2.register("noop", lambda i: None)
        sim2.load_state_dict(sim.state_dict())
        assert sim2.heap_compactions == compactions


_MISSING = object()


def _corrupt(state, path, value):
    """Set (or, with ``value is _MISSING``, delete) ``state[path...]``."""
    *parents, leaf = path
    node = state
    for step in parents:
        node = node[step]
    if value is _MISSING:
        del node[leaf]
    else:
        node[leaf] = value
    return state


_BAD_FIELDS = [
    (("periodic", "0"), {"period": 1.0}),
    (("periodic", "0", "period"), "60"),
    (("periodic", "0", "cancelled"), _MISSING),
    (("periodic", "0", "args"), 3),
    (("periodic",), [1, 2]),
    (("queue", 0, "time"), None),
    (("queue", 0, "seq"), 1.5),
    (("queue", 0, "seq"), True),
    (("queue", 0, "label"), _MISSING),
    (("queue", 0, "key"), 7),
    (("queue", 1, "cancelled"), "yes"),
    (("queue", 0), "not-an-entry"),
    (("queue",), None),
    (("now",), _MISSING),
    (("seq",), "12"),
    (("events_fired",), None),
    (("events_cancelled",), 1.0),
    (("heap_compactions",), "0"),
    (("periodic_next",), _MISSING),
    # Each of these used to load and then fail or hang mid-run.
    (("queue", 0, "key"), None),
    (("queue", 2, "args"), [5]),
    (("periodic", "0", "key"), "unregistered"),
    (("periodic", "0", "period"), 0),
    (("periodic", "0", "period"), -60.0),
]


def _case_id(path, value):
    shown = "missing" if value is _MISSING else repr(value)
    return ".".join(str(p) for p in path) + "=" + shown


class TestMalformedSnapshot:
    """A bad snapshot raises a typed error and changes nothing."""

    @staticmethod
    def _snapshot():
        sim = _twin([])
        sim.schedule_key(10.0, "tick", args=("a",), label="tick-a")
        sim.schedule_key(20.0, "beat", label="beat").cancel()
        sim.every_key(60.0, "beat", label="beat-every")
        return sim.state_dict()

    @pytest.mark.parametrize(
        "path, value", _BAD_FIELDS, ids=[_case_id(p, v) for p, v in _BAD_FIELDS]
    )
    def test_bad_field_raises_and_leaves_state_alone(self, path, value):
        state = _corrupt(self._snapshot(), path, value)
        log = []
        sim = _twin(log)
        pending = sim.schedule_key(5.0, "tick", args=("keep",), label="keep")
        sim.run_until(1.0)
        before = sim.state_dict()
        with pytest.raises(SimulationError):
            sim.load_state_dict(state)
        assert sim.state_dict() == before
        assert [h for _, _, h in sim._queue] == [pending]
        sim.run_until(100.0)
        assert log == [(5.0, "tick", "keep")]

    def test_non_mapping_snapshot_is_refused(self):
        with pytest.raises(SimulationError, match="mapping"):
            Simulator().load_state_dict(["not", "a", "snapshot"])

    def test_bad_periodic_task_id_is_refused(self):
        state = self._snapshot()
        state["periodic"]["zero"] = state["periodic"].pop("0")
        with pytest.raises(SimulationError, match="task id"):
            _twin([]).load_state_dict(state)

    def test_discarded_handles_no_longer_count_as_pending(self):
        sim = _twin([])
        stale = sim.schedule_key(5.0, "beat")
        sim.load_state_dict(self._snapshot())
        pending = sim.pending_count
        stale.cancel()
        assert sim.pending_count == pending
