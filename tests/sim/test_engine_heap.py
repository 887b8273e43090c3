"""Heap hygiene: tombstone compaction keeps long runs bounded.

A campaign that schedules and cancels events for months must not let
cancelled tombstones accumulate in the priority queue.  The engine
sweeps the heap when more than half of it is dead; these tests drive a
million-operation schedule/cancel workload and assert the queue stays
bounded, and that the compaction count surfaces in the telemetry
snapshot of a real campaign run.
"""

import datetime as dt

from repro.core.builder import CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.sim.clock import SimClock
from repro.sim.engine import EventHandle, Simulator
from repro.telemetry import Telemetry


class TestHeapBounded:
    def test_million_op_cancel_heavy_run_keeps_heap_bounded(self):
        sim = Simulator(SimClock())
        live = []
        fired = []
        peak = 0
        # 500k schedules + ~500k cancels = a million heap operations,
        # with only ~16 events ever truly pending.
        for i in range(500_000):
            live.append(sim.schedule_at(1e9 + i, lambda i=i: fired.append(i)))
            if len(live) > 16:
                live.pop(0).cancel()
            if i % 4096 == 0:
                peak = max(peak, len(sim._queue))
        peak = max(peak, len(sim._queue))
        assert sim.heap_compactions > 0
        # Bounded means proportional to the live set, not the op count.
        assert peak < 1000
        # The survivors still fire in order.
        sim.run_until(2e9)
        assert len(fired) == 16

    def test_compaction_preserves_event_order(self):
        sim = Simulator(SimClock())
        seen = []
        handles = [
            sim.schedule_at(float(t), lambda t=t: seen.append(t))
            for t in range(1, 2000)
        ]
        for h in handles[::2]:
            h.cancel()
        assert sim.heap_compactions >= 0  # cancellation may or may not sweep yet
        sim.run_until(3000.0)
        assert seen == [t for t in range(1, 2000) if t % 2 == 0]


class TestMassCancellation:
    """A staged load-shed abandons thousands of per-host pending
    occurrences at once; the heap must compact the tombstones away and
    the survivors must fire exactly as if the dead entries had never
    been scheduled."""

    N_HOSTS = 4000
    PERIOD = 300.0

    @staticmethod
    def _pending_ticks(sim, hosts, fired, at):
        """One queued keyed occurrence per host -- the shape of a
        fleet's next tick wave."""
        return [
            sim.schedule_at_key(at, "host.tick", args=(h,), label=f"host-{h}")
            for h in hosts
        ]

    def test_staged_shed_compacts_and_keeps_draw_order(self):
        sim = Simulator(SimClock())
        fired = []
        sim.register("host.tick", lambda h: fired.append(h))
        handles = self._pending_ticks(
            sim, range(self.N_HOSTS), fired, self.PERIOD
        )
        before = len(sim._queue)
        assert before == self.N_HOSTS
        # Two shed stages: half the fleet, then half the remainder.
        for h in handles[: self.N_HOSTS // 2]:
            h.cancel()
        for h in handles[self.N_HOSTS // 2 : 3 * self.N_HOSTS // 4]:
            h.cancel()
        assert sim.heap_compactions > 0
        # Compaction reclaims the tombstones instead of letting the
        # queue carry ~3000 dead entries to the next draw.
        assert len(sim._queue) <= before - self.N_HOSTS // 2
        sim.run_until(2 * self.PERIOD)
        survivors = list(range(3 * self.N_HOSTS // 4, self.N_HOSTS))
        assert fired == survivors

        # Draw-order oracle: a sim that only ever had the survivors.
        oracle = Simulator(SimClock())
        oracle_fired = []
        oracle.register("host.tick", lambda h: oracle_fired.append(h))
        self._pending_ticks(oracle, survivors, oracle_fired, self.PERIOD)
        oracle.run_until(2 * self.PERIOD)
        assert fired == oracle_fired

    def test_periodic_mass_cancel_drains_without_tombstones(self):
        # PeriodicTask.cancel is a table flag: the queued occurrence
        # fires lame-duck and simply stops rescheduling, so a mass
        # cancellation of per-host periodic keys drains the queue by
        # itself -- no tombstone pile-up, no compaction needed.
        sim = Simulator(SimClock())
        fired = []
        sim.register("host.tick", lambda h: fired.append(h))
        tasks = [
            sim.every_key(
                self.PERIOD, "host.tick", args=(h,), start=self.PERIOD,
                label=f"host-{h}",
            )
            for h in range(self.N_HOSTS)
        ]
        for task in tasks[self.N_HOSTS // 4 :]:
            task.cancel()
        sim.run_until(2 * self.PERIOD + 1.0)
        # The lame-duck wave fired once; after it only survivors remain.
        assert len(sim._queue) == self.N_HOSTS // 4
        fired.clear()
        sim.run_until(3 * self.PERIOD + 1.0)
        assert fired == list(range(self.N_HOSTS // 4))


class TestHeapOrder:
    """Heap entries are ``(time, seq, handle)``: ties fire in scheduling
    order whatever API queued them."""

    def test_ties_fire_in_scheduling_order_across_apis(self):
        sim = Simulator(SimClock())
        fired = []
        sim.register("tag", lambda tag: fired.append(tag))
        sim.schedule_at(60.0, lambda: fired.append("closure-1"))
        sim.schedule_at_key(60.0, "tag", ("key-1",))
        sim.every_key_group(
            60.0,
            "group",
            [lambda: fired.append("group-a"), lambda: fired.append("group-b")],
            start=60.0,
        )
        sim.schedule(60.0, lambda: fired.append("closure-2"))
        sim.schedule_at_key(60.0, "tag", ["key-2"])
        sim.run_until(60.0)
        assert fired == [
            "closure-1", "key-1", "group-a", "group-b", "closure-2", "key-2",
        ]

    def test_find_key_handles_returns_live_event_handles(self):
        sim = Simulator(SimClock())
        sim.register("tag", lambda tag: None)
        first = sim.schedule_at_key(10.0, "tag", ("a",))
        sim.schedule_at_key(20.0, "tag", ("b",))
        cancelled = sim.schedule_at_key(30.0, "tag", ("a",))
        cancelled.cancel()
        found = sim.find_key_handles("tag", ("a",))
        assert found == [first]
        assert all(isinstance(h, EventHandle) for h in sim.find_key_handles("tag"))
        assert len(sim.find_key_handles("tag")) == 2

    def test_mass_cancel_inside_run_until_keeps_order(self):
        # A callback cancels most of the queue while run_until is looping;
        # the compaction swaps the heap list under the loop, and the
        # survivors must still fire, in order.
        sim = Simulator(SimClock())
        fired = []
        sim.register("tag", lambda i: fired.append(i))
        handles = [
            sim.schedule_at_key(float(10 + i), "tag", (i,)) for i in range(40)
        ]

        def shed():
            for h in handles[:30]:
                h.cancel()

        sim.schedule_at(5.0, shed)
        sim.schedule_at_key(10.0, "tag", ("tie",))
        before = sim.heap_compactions
        sim.run_until(100.0)
        assert sim.heap_compactions > before
        assert fired == ["tie"] + list(range(30, 40))
        assert sim.events_cancelled == 30

    def test_state_round_trip_keeps_tombstones(self):
        sim = Simulator(SimClock())
        sim.register("tag", lambda i: None)
        handles = [sim.schedule_at_key(float(i), "tag", (i,)) for i in range(1, 9)]
        for h in handles[1:4]:
            h.cancel()
        state = sim.state_dict()
        assert [e["cancelled"] for e in state["queue"]].count(True) == 3
        twin = Simulator(SimClock())
        twin.register("tag", lambda i: None)
        twin.load_state_dict(state)
        assert twin.state_dict() == state
        assert twin.pending_count == sim.pending_count == 5
        twin.run_until(100.0)
        sim.run_until(100.0)
        assert twin.state_dict() == sim.state_dict()


class TestHeapTelemetry:
    def test_heap_compactions_exposed_in_telemetry_snapshot(self):
        telemetry = Telemetry()
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=7))
            .with_telemetry(telemetry)
            .build()
        )
        campaign.run(until=dt.datetime(2010, 2, 22, 12, 0))
        gauges = telemetry.metrics.to_json_dict()["gauges"]
        assert "engine.heap_compactions" in gauges
        assert gauges["engine.heap_compactions"] == float(
            campaign.sim.heap_compactions
        )
