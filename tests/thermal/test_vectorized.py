"""The two-node tent bank: replica behaviour and its physical invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.climate.generator import WeatherGenerator, WeatherSample
from repro.climate.psychro import absolute_humidity, dewpoint
from repro.thermal.tent import Modification, TentEnvelope
from repro.thermal.twonode import TwoNodeTentBank


@pytest.fixture(scope="module")
def weather():
    return WeatherGenerator()


def _weather_sample(temp_c, rh_percent, wind_ms, solar_wm2):
    return WeatherSample(
        time=0.0,
        temp_c=temp_c,
        dewpoint_c=min(float(dewpoint(temp_c, rh_percent)), temp_c),
        rh_percent=rh_percent,
        wind_ms=wind_ms,
        solar_wm2=solar_wm2,
        cloud_fraction=0.5,
    )


class TestReplicas:
    def test_replicas_with_equal_load_stay_identical(self, weather):
        start = weather.start_time
        first = weather.sample(start)
        bank = TwoNodeTentBank(64, first.temp_c)
        load = np.full(64, 450.0)
        t = start
        for _ in range(24):
            t += 1800.0
            bank.step(1800.0, load, weather.sample(t))
        assert np.all(bank.air_temp_c == bank.air_temp_c[0])
        assert np.all(bank.mass_temp_c == bank.mass_temp_c[0])

    def test_hotter_pod_stays_hotter(self, weather):
        start = weather.start_time
        first = weather.sample(start)
        bank = TwoNodeTentBank(2, first.temp_c)
        load = np.array([200.0, 1200.0])
        t = start
        for _ in range(24):
            t += 1800.0
            bank.step(1800.0, load, weather.sample(t))
        assert bank.air_temp_c[1] > bank.air_temp_c[0]


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_tents=st.integers(1, 8))
    def test_heat_balance_and_moisture_over_one_substep(self, data, n_tents):
        def vector(lo, hi):
            floats = st.lists(st.floats(lo, hi), min_size=n_tents, max_size=n_tents)
            return np.array(data.draw(floats))

        load = vector(0.0, 3000.0)
        ua_factor = vector(0.1, 3.0)
        ach_factor = vector(0.05, 3.0)
        ach_factor[0] = 1.0  # one healthy replica to compare against
        sample = _weather_sample(
            data.draw(st.floats(-30.0, 35.0)),
            data.draw(st.floats(1.0, 100.0)),
            data.draw(st.floats(0.0, 20.0)),
            data.draw(st.floats(0.0, 900.0)),
        )
        bank = TwoNodeTentBank(n_tents, 0.0)
        bank.air_temp_c[:] = vector(-30.0, 60.0)
        bank.mass_temp_c[:] = vector(-30.0, 60.0)
        vapor0 = absolute_humidity(
            data.draw(st.floats(-30.0, 35.0)), data.draw(st.floats(1.0, 100.0))
        )
        bank.vapor_g_m3.fill(vapor0)

        # A step no longer than the explicit-Euler bound is one sub-step.
        ua = bank.envelope.ua_w_per_k(sample.wind_ms) * ua_factor
        max_dt = min(
            bank.air_capacity / (2.0 * (bank.coupling + ua.max())),
            bank.mass_capacity / (2.0 * bank.coupling),
        )
        dt = data.draw(st.floats(0.01, 1.0)) * max_dt

        t_a0 = bank.air_temp_c.copy()
        heat0 = bank.air_capacity * t_a0 + bank.mass_capacity * bank.mass_temp_c
        bank.step(dt, load, sample, ua_factor=ua_factor, ach_factor=ach_factor)
        heat1 = bank.air_capacity * bank.air_temp_c + bank.mass_capacity * bank.mass_temp_c

        # The coupling terms cancel: only the sources and the envelope
        # move the stored heat.
        q = load + bank.envelope.solar_gain_w(sample.solar_wm2)
        expected = (q - ua * (t_a0 - sample.temp_c)) * dt
        # Rounding is relative to the stored heat; a nanojoule floor keeps
        # an all-zero tent from demanding exact subnormal arithmetic.
        scale = np.abs(heat0) + np.abs(heat1) + np.abs(expected)
        tolerance = 64 * np.finfo(float).eps * scale + 1e-9
        assert np.all(np.abs((heat1 - heat0) - expected) <= tolerance)

        rh = bank.intake_rh_percent
        assert np.all((rh >= 0.0) & (rh <= 100.0))

        target = absolute_humidity(sample.temp_c, sample.rh_percent)
        gap = np.abs(bank.vapor_g_m3 - target)
        slower = ach_factor < 1.0
        if abs(vapor0 - target) > 1e-3:
            assert np.all(gap[slower] > gap[0])
        assert np.all(gap <= abs(vapor0 - target))


class TestEnvelopeModifications:
    def test_modifications_apply_fleet_wide(self, weather):
        first = weather.sample(weather.start_time)
        bank = TwoNodeTentBank(3, first.temp_c)
        ua_before = bank.envelope.ua_w_per_k(0.0)
        bank.apply_modification(Modification.INNER_TENT_REMOVED)
        assert bank.envelope.ua_w_per_k(0.0) > ua_before

    def test_custom_envelope_is_respected(self, weather):
        envelope = TentEnvelope().with_modification(Modification.FAN_INSTALLED)
        first = weather.sample(weather.start_time)
        bank = TwoNodeTentBank(2, first.temp_c, envelope=envelope)
        assert Modification.FAN_INSTALLED in bank.envelope.active_modifications()


class TestValidation:
    def test_rejects_empty_bank(self):
        with pytest.raises(ValueError):
            TwoNodeTentBank(0, 0.0)

    def test_rejects_negative_dt(self, weather):
        first = weather.sample(weather.start_time)
        bank = TwoNodeTentBank(1, first.temp_c)
        with pytest.raises(ValueError):
            bank.step(-1.0, np.array([0.0]), first)

    def test_zero_dt_is_a_noop(self, weather):
        first = weather.sample(weather.start_time)
        bank = TwoNodeTentBank(1, first.temp_c)
        before = bank.air_temp_c.copy()
        bank.step(0.0, np.array([500.0]), first)
        assert np.array_equal(bank.air_temp_c, before)
