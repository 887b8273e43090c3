"""Tests for the Lascar EL-USB-2-LCD data logger model."""

import numpy as np
import pytest

from repro.climate.generator import WeatherGenerator
from repro.climate.profiles import HELSINKI_2010
from repro.monitoring.datalogger import LascarDataLogger, RemovalEpisode
from repro.sim.clock import DAY, HOUR, MINUTE, SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.thermal.enclosure import BasementMachineRoom, OutdoorAmbient


@pytest.fixture
def outdoor():
    weather = WeatherGenerator(HELSINKI_2010, RngStreams(2))
    enclosure = OutdoorAmbient("outside", weather)
    enclosure.advance(SimClock().at(2010, 3, 1))
    return enclosure


class TestArrivalGating:
    def test_no_readings_before_arrival(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2), arrival_time=1000.0)
        assert logger.sample(time=500.0) is None
        assert logger.readings == []

    def test_records_from_arrival_onward(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2), arrival_time=1000.0)
        reading = logger.sample(time=1000.0)
        assert reading is not None
        assert len(logger.readings) == 1


class TestAccuracy:
    def test_reading_within_spec_band(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2))
        t = SimClock().at(2010, 3, 1)
        reading = logger.sample(t)
        assert reading.temp_c == pytest.approx(outdoor.intake_temp_c, abs=1.5)
        assert reading.rh_percent == pytest.approx(outdoor.intake_rh_percent, abs=7.0)

    def test_quantized_to_device_resolution(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2))
        t = SimClock().at(2010, 3, 1)
        for k in range(20):
            reading = logger.sample(t + k)
            assert (reading.temp_c / 0.5) == pytest.approx(round(reading.temp_c / 0.5))
            assert (reading.rh_percent / 0.5) == pytest.approx(
                round(reading.rh_percent / 0.5)
            )

    def test_rh_clipped(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2), rh_error_std=80.0)
        t = SimClock().at(2010, 3, 1)
        for k in range(30):
            assert 0.0 <= logger.sample(t + k).rh_percent <= 100.0


class TestRemovalEpisodes:
    def test_indoor_readings_during_download(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2))
        t = SimClock().at(2010, 3, 1)
        logger.schedule_download_trip(t, duration_s=30 * MINUTE)
        reading = logger.sample(t + 10 * MINUTE)
        # Office conditions, not the freezing outdoors.
        assert reading.temp_c > 15.0

    def test_outdoor_readings_resume_after_trip(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2))
        t = SimClock().at(2010, 3, 1)
        logger.schedule_download_trip(t, duration_s=30 * MINUTE)
        after = logger.sample(t + 31 * MINUTE)
        assert after.temp_c < 10.0

    def test_readings_during_removals_helper(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2))
        t = SimClock().at(2010, 3, 1)
        logger.schedule_download_trip(t + HOUR, duration_s=30 * MINUTE)
        logger.sample(t)
        logger.sample(t + HOUR + MINUTE)
        assert len(logger.readings_during_removals()) == 1

    def test_episode_validation(self):
        with pytest.raises(ValueError):
            RemovalEpisode(start=10.0, end=10.0)

    def test_episode_covers(self):
        episode = RemovalEpisode(start=10.0, end=20.0)
        assert episode.covers(10.0)
        assert episode.covers(19.9)
        assert not episode.covers(20.0)


class TestPeriodicSampling:
    def test_attach_respects_arrival(self, outdoor):
        sim = Simulator()
        start = SimClock().at(2010, 3, 1)
        sim.run_until(start - DAY)
        logger = LascarDataLogger(
            outdoor, RngStreams(2), arrival_time=start, period_s=MINUTE
        )
        logger.attach(sim)
        sim.run_until(start + 10 * MINUTE)
        assert len(logger.readings) == 11  # inclusive of both endpoints
        assert logger.times()[0] == start

    def test_attach_twice_rejected(self, outdoor):
        sim = Simulator()
        logger = LascarDataLogger(outdoor, RngStreams(2))
        logger.attach(sim)
        with pytest.raises(RuntimeError):
            logger.attach(sim)

    def test_detach_stops(self, outdoor):
        sim = Simulator()
        start = SimClock().at(2010, 3, 1)
        sim.run_until(start)
        logger = LascarDataLogger(outdoor, RngStreams(2), period_s=MINUTE)
        logger.attach(sim)
        sim.run_until(start + 5 * MINUTE)
        logger.detach()
        count = len(logger.readings)
        sim.run_until(start + HOUR)
        assert len(logger.readings) == count

    def test_accessor_arrays_align(self, outdoor):
        logger = LascarDataLogger(outdoor, RngStreams(2))
        t = SimClock().at(2010, 3, 1)
        for k in range(4):
            logger.sample(t + k * 60.0)
        assert logger.times().shape == logger.temperatures().shape == (4,)
        assert logger.humidities().shape == (4,)

    def test_invalid_period_rejected(self, outdoor):
        with pytest.raises(ValueError):
            LascarDataLogger(outdoor, period_s=0.0)


class TestBatchedSampling:
    def test_batch_equals_per_sample_draws(self, outdoor):
        # A removal episode inside the run and an RH error large enough
        # for both clamps.
        start = SimClock().at(2010, 3, 1)
        sim = Simulator()
        sim.run_until(start)
        batched = LascarDataLogger(outdoor, RngStreams(2), rh_error_std=80.0)
        reference = LascarDataLogger(outdoor, RngStreams(2), rh_error_std=80.0)
        for logger in (batched, reference):
            logger.schedule_download_trip(start + HOUR, duration_s=30 * MINUTE)
        batched.attach(sim)
        sim.run_until(start + 2 * DAY)
        for t in batched.times():
            reference.sample(float(t))
        assert batched.readings == reference.readings
        assert batched._rng.bit_generator.state == reference._rng.bit_generator.state
        assert len(batched.readings_during_removals()) == 30
        assert {r.rh_percent for r in batched.readings} >= {0.0, 100.0}
