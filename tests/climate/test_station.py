"""Tests for the SMEAR III-style weather station."""

import numpy as np
import pytest

from repro.climate.generator import WeatherGenerator
from repro.climate.profiles import HELSINKI_2010
from repro.climate.station import WeatherStation
from repro.sim.clock import HOUR, MINUTE, SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


@pytest.fixture
def weather():
    return WeatherGenerator(HELSINKI_2010, RngStreams(5))


class TestObservation:
    def test_reading_close_to_truth(self, weather):
        station = WeatherStation(weather, RngStreams(5))
        t = SimClock().at(2010, 3, 1, 12)
        truth = weather.sample(t)
        reading = station.observe(t)
        assert reading.temp_c == pytest.approx(truth.temp_c, abs=0.6)
        assert reading.rh_percent == pytest.approx(truth.rh_percent, abs=5.0)

    def test_rh_clipped_to_valid_range(self, weather):
        station = WeatherStation(weather, RngStreams(5), rh_error_std=50.0)
        t = SimClock().at(2010, 3, 1, 12)
        for _ in range(50):
            reading = station.observe(t)
            assert 0.0 <= reading.rh_percent <= 100.0

    def test_readings_accumulate(self, weather):
        station = WeatherStation(weather, RngStreams(5))
        t0 = SimClock().at(2010, 3, 1)
        station.observe(t0)
        station.observe(t0 + 600.0)
        assert len(station.readings) == 2


class TestPeriodicSampling:
    def test_attach_samples_on_cadence(self, weather):
        sim = Simulator()
        station = WeatherStation(weather, RngStreams(5), period_s=10 * MINUTE)
        station.attach(sim, start=SimClock().at(2010, 2, 12))
        sim.run_until(SimClock().at(2010, 2, 12, 1, 0))
        # One hour from the start instant inclusive: 0,10,...,60 -> 7 samples.
        assert len(station.readings) == 7

    def test_attach_twice_rejected(self, weather):
        sim = Simulator()
        station = WeatherStation(weather, RngStreams(5))
        station.attach(sim, start=SimClock().at(2010, 2, 12))
        with pytest.raises(RuntimeError):
            station.attach(sim)

    def test_detach_stops_sampling(self, weather):
        sim = Simulator()
        station = WeatherStation(weather, RngStreams(5), period_s=10 * MINUTE)
        start = SimClock().at(2010, 2, 12)
        station.attach(sim, start=start)
        sim.run_until(start + HOUR)
        station.detach()
        count = len(station.readings)
        sim.run_until(start + 2 * HOUR)
        assert len(station.readings) == count


class TestAccessors:
    def test_array_accessors_align(self, weather):
        station = WeatherStation(weather, RngStreams(5))
        t0 = SimClock().at(2010, 3, 1)
        for k in range(5):
            station.observe(t0 + k * 600.0)
        assert station.times().shape == (5,)
        assert station.temperatures().shape == (5,)
        assert station.humidities().shape == (5,)
        assert np.all(np.diff(station.times()) == 600.0)

    def test_invalid_period_rejected(self, weather):
        with pytest.raises(ValueError):
            WeatherStation(weather, period_s=0.0)


class TestBatchedObservation:
    def test_batch_equals_per_observation_draws(self, weather):
        # Large errors so the RH, wind and solar clamps all bite.
        errors = dict(temp_error_std_c=0.5, rh_error_std=60.0)
        start = SimClock().at(2010, 3, 1)
        sim = Simulator()
        batched = WeatherStation(weather, RngStreams(5), **errors)
        batched.attach(sim, start=start)
        sim.run_until(start + 2 * 86400.0)
        reference = WeatherStation(weather, RngStreams(5), **errors)
        for t in batched.times():
            reference.observe(float(t))
        assert batched.readings == reference.readings
        assert batched._rng.bit_generator.state == reference._rng.bit_generator.state
        assert {r.rh_percent for r in batched.readings} >= {0.0, 100.0}
