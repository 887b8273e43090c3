"""Tests for the two-node tent fidelity model."""

import pytest

from repro.climate.generator import WeatherGenerator
from repro.climate.psychro import absolute_humidity
from repro.climate.profiles import HELSINKI_2010
from repro.sim.clock import DAY, HOUR, SimClock
from repro.sim.rng import RngStreams
from repro.thermal.tent import Modification, Tent
from repro.thermal.twonode import TwoNodeTent


@pytest.fixture(scope="module")
def weather():
    return WeatherGenerator(HELSINKI_2010, RngStreams(31))


def run_enclosure(enclosure, start, end, load_w, step=300.0):
    enclosure.set_it_load(load_w)
    t = start
    while t <= end:
        enclosure.advance(t)
        t += step


class TestSteadyState:
    def test_air_equilibrium_matches_single_node(self, weather):
        single = Tent("one", weather)
        double = TwoNodeTent("two", weather)
        single.set_it_load(900.0)
        double.set_it_load(900.0)
        assert double.steady_state_air_excess_c(3.0) == pytest.approx(
            single.steady_state_excess_c(3.0)
        )

    def test_mass_runs_warmer_than_air(self, weather):
        tent = TwoNodeTent("two", weather)
        tent.set_it_load(900.0)
        assert tent.steady_state_mass_excess_c(3.0) > tent.steady_state_air_excess_c(3.0)

    def test_long_run_converges_to_same_temperatures(self, weather):
        start = SimClock().at(2010, 3, 20)
        single = Tent("one", weather)
        double = TwoNodeTent("two", weather)
        for enclosure in (single, double):
            run_enclosure(enclosure, start, start + 3 * DAY, load_w=900.0)
        # Both track the same envelope; after days the air temperatures
        # agree to within the diurnal transient differences.
        assert double.intake_temp_c == pytest.approx(single.intake_temp_c, abs=2.0)


class TestDynamics:
    def test_mass_lags_air_after_heat_step(self, weather):
        start = SimClock().at(2010, 3, 1)
        tent = TwoNodeTent("two", weather)
        run_enclosure(tent, start, start + DAY, load_w=0.0)
        # Switch on the full fleet; the air responds first.
        tent.set_it_load(900.0)
        t = start + DAY
        air_before, mass_before = tent.air_temp_c, tent.mass_temp_c
        for _ in range(6):  # 30 minutes
            t += 300.0
            tent.advance(t)
        assert tent.air_temp_c - air_before > tent.mass_temp_c - mass_before

    def test_stable_under_long_steps(self, weather):
        start = SimClock().at(2010, 3, 1)
        tent = TwoNodeTent("two", weather)
        tent.set_it_load(900.0)
        tent.advance(start)
        tent.advance(start + 6 * HOUR)  # one huge step: substepping must hold
        assert -40.0 < tent.air_temp_c < 70.0

    def test_modifications_cool_the_two_node_tent_too(self, weather):
        start = SimClock().at(2010, 3, 20)
        sealed = TwoNodeTent("sealed", weather)
        opened = TwoNodeTent("opened", weather)
        for mod in Modification:
            opened.envelope = opened.envelope.with_modification(mod)
        for tent in (sealed, opened):
            run_enclosure(tent, start, start + 2 * DAY, load_w=900.0)
        assert opened.intake_temp_c < sealed.intake_temp_c


class TestPlantAirflow:
    def test_degraded_airflow_reaches_the_bank(self, weather):
        start = SimClock().at(2010, 3, 1)
        healthy = TwoNodeTent("healthy", weather)
        choked = TwoNodeTent("choked", weather)
        choked.set_plant_airflow(0.5, 0.2)
        for tent in (healthy, choked):
            run_enclosure(tent, start, start + 6 * HOUR, load_w=900.0)
        assert choked.air_temp_c > healthy.air_temp_c
        outside = weather.sample(start + 6 * HOUR)
        target = absolute_humidity(outside.temp_c, outside.rh_percent)
        assert abs(choked.bank.vapor_g_m3[0] - target) > abs(
            healthy.bank.vapor_g_m3[0] - target
        )


class TestValidation:
    def test_mass_fraction_bounds(self, weather):
        with pytest.raises(ValueError):
            TwoNodeTent("x", weather, mass_heat_fraction=1.5)

    def test_positive_parameters(self, weather):
        with pytest.raises(ValueError):
            TwoNodeTent("x", weather, coupling_w_per_k=0.0)

    def test_humidity_in_bounds(self, weather):
        start = SimClock().at(2010, 3, 1)
        tent = TwoNodeTent("two", weather)
        tent.set_it_load(500.0)
        t = start
        while t < start + DAY:
            tent.advance(t)
            assert 0.0 <= tent.intake_rh_percent <= 100.0
            t += HOUR
