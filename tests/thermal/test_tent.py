"""Tests for the tent heat balance and its modifications."""

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.climate.generator import WeatherGenerator
from repro.climate.profiles import HELSINKI_2010
from repro.sim.clock import DAY, HOUR, SimClock
from repro.sim.rng import RngStreams
from repro.thermal.tent import Modification, Tent, TentEnvelope


@pytest.fixture(scope="module")
def weather():
    return WeatherGenerator(HELSINKI_2010, RngStreams(21))


def run_tent(tent, start, end, step=300.0):
    t = start
    while t <= end:
        tent.advance(t)
        t += step


class TestEnvelopeParameters:
    def test_each_modification_raises_conductance(self):
        base = TentEnvelope()
        wind = 3.0
        for mod in (
            Modification.INNER_TENT_REMOVED,
            Modification.BOTTOM_TARP_REMOVED,
            Modification.FAN_INSTALLED,
            Modification.DOOR_HALF_OPEN,
        ):
            modified = base.with_modification(mod)
            assert modified.ua_w_per_k(wind) > base.ua_w_per_k(wind)

    def test_each_modification_raises_ventilation(self):
        base = TentEnvelope()
        for mod in (
            Modification.INNER_TENT_REMOVED,
            Modification.BOTTOM_TARP_REMOVED,
            Modification.FAN_INSTALLED,
            Modification.DOOR_HALF_OPEN,
        ):
            modified = base.with_modification(mod)
            assert modified.air_changes_per_hour(3.0) > base.air_changes_per_hour(3.0)

    def test_foil_cuts_solar_gain_only(self):
        base = TentEnvelope()
        foiled = base.with_modification(Modification.REFLECTIVE_FOIL)
        assert foiled.solar_gain_w(400.0) < base.solar_gain_w(400.0)
        assert foiled.ua_w_per_k(3.0) == base.ua_w_per_k(3.0)

    def test_wind_raises_conductance(self):
        env = TentEnvelope()
        assert env.ua_w_per_k(8.0) > env.ua_w_per_k(0.0)

    def test_modifications_idempotent(self):
        env = TentEnvelope().with_modification(Modification.FAN_INSTALLED)
        again = env.with_modification(Modification.FAN_INSTALLED)
        assert env == again

    def test_active_modifications_in_letter_order(self):
        env = (
            TentEnvelope()
            .with_modification(Modification.FAN_INSTALLED)
            .with_modification(Modification.REFLECTIVE_FOIL)
        )
        letters = [m.letter for m in env.active_modifications()]
        assert letters == ["R", "F"]

    def test_negative_irradiance_clipped(self):
        assert TentEnvelope().solar_gain_w(-100.0) == 0.0


FLAGS = (
    "reflective_foil",
    "inner_tent_removed",
    "bottom_tarp_removed",
    "fan_installed",
    "door_half_open",
)


def per_flag_ua(envelope, wind_ms):
    """Conductance priced flag by flag, as on every tick before."""
    ua = envelope.base_ua_w_per_k
    for flag, factor in envelope._UA_FACTORS:
        if getattr(envelope, flag):
            ua *= factor
    return ua * (1.0 + envelope.wind_ua_coefficient * max(0.0, wind_ms))


def per_flag_ach(envelope, wind_ms):
    """Ventilation priced flag by flag, as on every tick before."""
    ach = envelope.base_ach
    for flag, factor in envelope._ACH_FACTORS:
        if getattr(envelope, flag):
            ach *= factor
    return ach * (1.0 + 0.15 * max(0.0, wind_ms))


class TestStillAirProducts:
    """The envelope prices its flag products once; every read must equal
    the per-flag loop to the last bit."""

    @given(
        wind=st.floats(min_value=-5.0, max_value=40.0),
        base_ua=st.sampled_from([20.0]) | st.floats(min_value=1.0, max_value=100.0),
        base_ach=st.sampled_from([2.5]) | st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_the_per_flag_loop_for_every_flag_set(self, wind, base_ua, base_ach):
        for bits in itertools.product((False, True), repeat=len(FLAGS)):
            envelope = TentEnvelope(
                base_ua_w_per_k=base_ua, base_ach=base_ach, **dict(zip(FLAGS, bits))
            )
            assert envelope.ua_w_per_k(wind) == per_flag_ua(envelope, wind)
            assert envelope.air_changes_per_hour(wind) == per_flag_ach(envelope, wind)

    def test_replaced_envelope_gets_fresh_products(self):
        base = TentEnvelope()
        wind = 2.5
        for changed in (
            base.with_modification(Modification.FAN_INSTALLED),
            dataclasses.replace(base, inner_tent_removed=True, door_half_open=True),
            dataclasses.replace(base, base_ua_w_per_k=33.0, base_ach=4.0),
        ):
            assert changed.ua_w_per_k(wind) == per_flag_ua(changed, wind)
            assert changed.air_changes_per_hour(wind) == per_flag_ach(changed, wind)
            assert changed.ua_w_per_k(wind) != base.ua_w_per_k(wind)
            assert changed.air_changes_per_hour(wind) != base.air_changes_per_hour(wind)
        assert base.ua_w_per_k(wind) == per_flag_ua(base, wind)

    def test_products_leave_equality_and_pickling_alone(self):
        envelope = TentEnvelope(fan_installed=True)
        assert envelope == TentEnvelope(fan_installed=True)
        assert pickle.loads(pickle.dumps(envelope)) == envelope


class TestTentThermal:
    def test_sealed_tent_retains_heat(self, weather):
        # Three vendor-A hosts: the tent runs well above outside air.
        tent = Tent("tent", weather)
        tent.set_it_load(255.0)
        start = SimClock().at(2010, 2, 19, 12)
        run_tent(tent, start, start + 2 * DAY)
        outside = float(weather.temperature(start + 2 * DAY))
        excess = tent.intake_temp_c - outside
        assert 5.0 < excess < 20.0

    def test_modifications_narrow_the_gap(self, weather):
        sealed = Tent("sealed", weather)
        opened = Tent("opened", weather)
        for mod in Modification:
            opened.apply_modification(mod, 0.0)
        for tent in (sealed, opened):
            tent.set_it_load(900.0)
            start = SimClock().at(2010, 3, 25)
            run_tent(tent, start, start + 2 * DAY)
        outside = float(weather.temperature(SimClock().at(2010, 3, 27)))
        assert (opened.intake_temp_c - outside) < 0.55 * (sealed.intake_temp_c - outside)

    def test_steady_state_excess_monotone_in_modifications(self, weather):
        tent = Tent("tent", weather)
        tent.set_it_load(900.0)
        previous = tent.steady_state_excess_c(wind_ms=3.0)
        for mod in (
            Modification.INNER_TENT_REMOVED,
            Modification.BOTTOM_TARP_REMOVED,
            Modification.FAN_INSTALLED,
            Modification.DOOR_HALF_OPEN,
        ):
            tent.apply_modification(mod, 0.0)
            current = tent.steady_state_excess_c(wind_ms=3.0)
            assert current < previous
            previous = current

    def test_more_load_means_warmer_tent(self, weather):
        light = Tent("light", weather)
        heavy = Tent("heavy", weather)
        light.set_it_load(250.0)
        heavy.set_it_load(900.0)
        start = SimClock().at(2010, 3, 1)
        for tent in (light, heavy):
            run_tent(tent, start, start + DAY)
        assert heavy.intake_temp_c > light.intake_temp_c + 5.0

    def test_humidity_stays_in_bounds(self, weather):
        tent = Tent("tent", weather)
        tent.set_it_load(500.0)
        start = SimClock().at(2010, 3, 1)
        t = start
        while t < start + 5 * DAY:
            tent.advance(t)
            assert 0.0 <= tent.intake_rh_percent <= 100.0
            t += HOUR

    def test_warm_tent_has_lower_rh_than_outside(self, weather):
        # The core psychrometric effect behind Fig. 4.
        tent = Tent("tent", weather)
        tent.set_it_load(900.0)
        start = SimClock().at(2010, 3, 1)
        run_tent(tent, start, start + 2 * DAY)
        outside_rh = float(weather.relative_humidity(start + 2 * DAY))
        assert tent.intake_rh_percent < outside_rh


class TestModificationLog:
    def test_log_records_times(self, weather):
        tent = Tent("tent", weather)
        tent.apply_modification(Modification.REFLECTIVE_FOIL, 100.0)
        tent.apply_modification(Modification.FAN_INSTALLED, 200.0)
        assert tent.modification_log == [
            (100.0, Modification.REFLECTIVE_FOIL),
            (200.0, Modification.FAN_INSTALLED),
        ]

    def test_modification_times_keeps_first_application(self, weather):
        tent = Tent("tent", weather)
        tent.apply_modification(Modification.FAN_INSTALLED, 100.0)
        tent.apply_modification(Modification.FAN_INSTALLED, 500.0)
        assert tent.modification_times() == {"F": 100.0}

    def test_letters_match_figure_3(self):
        assert Modification.REFLECTIVE_FOIL.letter == "R"
        assert Modification.INNER_TENT_REMOVED.letter == "I"
        assert Modification.BOTTOM_TARP_REMOVED.letter == "B"
        assert Modification.FAN_INSTALLED.letter == "F"
