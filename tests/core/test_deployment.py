"""Tests for fleet construction and the tick loop."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.climate.generator import WeatherGenerator
from repro.core.config import ExperimentConfig
from repro.core.deployment import Fleet, paper_install_plan
from repro.hardware.faults import FaultLog
from repro.hardware.host import HostState
from repro.sim.clock import HOUR, SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.thermal.enclosure import OutdoorAmbient


@pytest.fixture
def rig():
    config = ExperimentConfig(seed=7)
    sim = Simulator()
    streams = RngStreams(config.seed)
    weather = WeatherGenerator(config.climate, streams, sim.clock)
    fault_log = FaultLog()
    fleet = Fleet(sim, config, streams, weather, fault_log)
    return sim, fleet, config


class TestConstruction:
    def test_nineteen_hosts(self, rig):
        _sim, fleet, _config = rig
        assert len(fleet.hosts) == 19
        assert all(h.state is HostState.STAGED for h in fleet.hosts.values())

    def test_two_defective_tent_switches_and_a_defective_spare(self, rig):
        _sim, fleet, _config = rig
        assert len(fleet.tent_switches) == 2
        assert all(s.inherent_defect for s in fleet.tent_switches)
        assert fleet.spare_switch.inherent_defect
        assert all(not s.inherent_defect for s in fleet.basement_switches)

    def test_three_enclosures(self, rig):
        _sim, fleet, _config = rig
        names = {e.name for e in fleet.enclosures}
        assert names == {"tent", "basement", "indoor office"}

    def test_group_lookup(self, rig):
        _sim, fleet, _config = rig
        assert len(fleet.hosts_in_group("tent")) == 9
        assert fleet.enclosure_for_group("tent") is fleet.tent
        with pytest.raises(ValueError):
            fleet.enclosure_for_group("spare")

    def test_unknown_host_raises(self, rig):
        _sim, fleet, _config = rig
        with pytest.raises(KeyError):
            fleet.host(99)

    def test_install_plan_sorted_by_date(self):
        plan = paper_install_plan()
        dates = [p.install_date for p in plan]
        assert dates == sorted(dates)
        assert len(plan) == 18


class TestSwitchAssignment:
    def test_tent_hosts_balance_across_switches(self, rig):
        _sim, fleet, _config = rig
        first = fleet.next_tent_switch()
        first.connect("host01")
        second = fleet.next_tent_switch()
        assert first is not second  # least-loaded picks the empty one
        second.connect("host02")
        third = fleet.next_tent_switch()
        assert len(third.connected()) <= 1

    def test_dead_switch_skipped(self, rig):
        _sim, fleet, _config = rig
        fleet.tent_switches[0].fail(0.0)
        chosen = {fleet.next_tent_switch() for _ in range(4)}
        assert chosen == {fleet.tent_switches[1]}

    def test_all_dead_provisions_replacement(self, rig):
        _sim, fleet, _config = rig
        for s in fleet.tent_switches:
            s.fail(0.0)
        replacement = fleet.next_tent_switch()
        assert replacement.operational
        assert not replacement.inherent_defect
        assert replacement in fleet.active_tent_switches

    def test_swap_tent_switch(self, rig):
        _sim, fleet, _config = rig
        dead = fleet.tent_switches[0]
        new = fleet.provision_replacement_switch()
        fleet.swap_tent_switch(dead, new)
        assert dead not in fleet.active_tent_switches
        assert new in fleet.active_tent_switches

    def test_basement_round_robin(self, rig):
        _sim, fleet, _config = rig
        seen = {fleet.next_basement_switch() for _ in range(2)}
        assert seen == set(fleet.basement_switches)


class TestInstallAndTick:
    def test_install_starts_archiver(self, rig):
        sim, fleet, config = rig
        start = sim.clock.to_seconds(config.test_start)
        sim.run_until(start)
        host = fleet.install(1, fleet.tent, start)
        assert host.running
        assert 1 in fleet.archivers
        sim.run_until(start + 2 * HOUR)
        assert fleet.ledger.runs_per_host.get(1, 0) >= 10

    def test_tick_heats_the_tent(self, rig):
        sim, fleet, config = rig
        start = sim.clock.to_seconds(config.test_start)
        sim.run_until(start)
        for host_id in (1, 2, 3):
            fleet.install(host_id, fleet.tent, start)
        fleet.start_ticking(start)
        sim.run_until(start + 12 * HOUR)
        outside = float(fleet.tent.weather.temperature(sim.now))
        assert fleet.tent.intake_temp_c > outside + 3.0

    def test_ticking_twice_rejected(self, rig):
        sim, fleet, _config = rig
        fleet.start_ticking(0.0)
        with pytest.raises(RuntimeError):
            fleet.start_ticking(0.0)

    def test_stop_ticking(self, rig):
        sim, fleet, _config = rig
        fleet.start_ticking(0.0)
        fleet.stop_ticking()
        sim.run_until(2 * HOUR)
        assert fleet.tent._last_time is None or fleet.tent._last_time <= 2 * HOUR

    def test_switch_failure_logged_once(self, rig):
        sim, fleet, config = rig
        from repro.hardware.faults import FaultKind

        start = sim.clock.to_seconds(config.test_start)
        sim.run_until(start)
        fleet.power_tent_switches()
        fleet.start_ticking(start)
        fleet.tent_switches[0].fail(start + HOUR)
        sim.run_until(start + 10 * HOUR)
        events = fleet.fault_log.of_kind(FaultKind.SWITCH)
        assert len([e for e in events if e.detail == "tent-sw1"]) == 1


class TestTickLoads:
    """The tick's heat budgets: per enclosure, the duty draws of its running
    hosts summed in ``fleet.hosts`` order, and nothing for an enclosure the
    fleet does not own."""

    @given(data=st.data())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_loads_are_a_hosts_order_sum(self, data):
        config = ExperimentConfig(seed=7)
        sim = Simulator()
        streams = RngStreams(config.seed)
        weather = WeatherGenerator(config.climate, streams, sim.clock)
        fleet = Fleet(sim, config, streams, weather, FaultLog())
        start = sim.clock.to_seconds(config.test_start)
        sim.run_until(start)
        outside = OutdoorAmbient("outside", weather)
        places = list(fleet.enclosures) + [outside]
        draws = st.floats(min_value=0.1, max_value=400.0)
        for host in fleet.hosts.values():
            host.duty_power_w = data.draw(draws)
            where = data.draw(st.sampled_from([None] + places))
            if where is None:
                continue
            host.install(where, start)
            if data.draw(st.booleans()):
                host.move_to(data.draw(st.sampled_from(places)), start)
            if data.draw(st.booleans()):
                host.power_down(start)
        expected = {}
        for enclosure in fleet.enclosures:
            total = 0.0
            for host in fleet.hosts.values():
                if host.enclosure is enclosure and host.state is HostState.RUNNING:
                    total += host.duty_power_w
            expected[enclosure.name] = total
        fleet._tick()
        assert {e.name: e.it_load_w for e in fleet.enclosures} == expected
        assert outside.it_load_w == 0.0
