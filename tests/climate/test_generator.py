"""Tests for the synthetic weather generator."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.climate.generator import WeatherGenerator, WeatherSample, solar_elevation_deg
from repro.climate.profiles import HELSINKI_2010
from repro.climate.psychro import relative_humidity_from_dewpoint
from repro.sim.clock import DAY, HOUR, SimClock
from repro.sim.rng import RngStreams


@pytest.fixture(scope="module")
def weather():
    return WeatherGenerator(HELSINKI_2010, RngStreams(7), SimClock())


@pytest.fixture(scope="module")
def campaign_times(weather):
    clock = SimClock()
    start = clock.at(2010, 2, 12)
    end = clock.at(2010, 5, 12)
    return np.arange(start, end, HOUR)


class TestDeterminism:
    def test_same_seed_reproduces_bitwise(self):
        a = WeatherGenerator(HELSINKI_2010, RngStreams(3))
        b = WeatherGenerator(HELSINKI_2010, RngStreams(3))
        t = SimClock().at(2010, 3, 1, 12)
        assert a.sample(t) == b.sample(t)

    def test_different_seeds_differ(self):
        a = WeatherGenerator(HELSINKI_2010, RngStreams(3))
        b = WeatherGenerator(HELSINKI_2010, RngStreams(4))
        t = SimClock().at(2010, 3, 1, 12)
        assert a.temperature(t) != b.temperature(t)


class TestPhysicalInvariants:
    def test_dewpoint_never_exceeds_temperature(self, weather, campaign_times):
        temp = weather.temperature(campaign_times)
        dew = weather.dewpoint(campaign_times)
        assert np.all(dew <= temp + 1e-9)

    def test_rh_within_bounds(self, weather, campaign_times):
        rh = weather.relative_humidity(campaign_times)
        assert np.all(rh >= 0.0) and np.all(rh <= 100.0)

    def test_wind_positive(self, weather, campaign_times):
        assert np.all(weather.wind_speed(campaign_times) > 0.0)

    def test_solar_non_negative(self, weather, campaign_times):
        assert np.all(weather.solar_irradiance(campaign_times) >= 0.0)

    def test_solar_zero_at_night(self, weather):
        t = SimClock().at(2010, 2, 20, 1, 0)  # 1 a.m. in February
        assert weather.solar_irradiance(t) == 0.0

    def test_solar_positive_at_spring_noon(self, weather):
        t = SimClock().at(2010, 4, 20, 12, 0)
        assert weather.solar_irradiance(t) > 20.0

    def test_cloud_fraction_in_unit_interval(self, weather, campaign_times):
        cloud = weather.cloud_fraction(campaign_times)
        assert np.all(cloud >= 0.0) and np.all(cloud <= 1.0)


class TestPaperAnchors:
    def test_prototype_weekend_is_deeply_cold(self, weather):
        clock = SimClock()
        t = np.arange(clock.at(2010, 2, 12, 16), clock.at(2010, 2, 15, 10), 600.0)
        temps = weather.temperature(t)
        # Paper: minimum -10.2 degC, average -9.2 degC.
        assert temps.mean() == pytest.approx(-9.2, abs=2.5)
        assert temps.min() == pytest.approx(-10.2, abs=4.0)

    def test_late_february_snap_reaches_about_minus_22(self, weather, campaign_times):
        feb = campaign_times[campaign_times < SimClock().at(2010, 3, 1)]
        assert weather.temperature(feb).min() == pytest.approx(-22.0, abs=3.0)

    def test_spring_is_warmer_than_winter(self, weather):
        clock = SimClock()
        feb = np.arange(clock.at(2010, 2, 12), clock.at(2010, 2, 26), HOUR)
        may = np.arange(clock.at(2010, 5, 1), clock.at(2010, 5, 12), HOUR)
        assert weather.temperature(may).mean() > weather.temperature(feb).mean() + 8.0

    def test_high_humidity_episodes_occur(self, weather, campaign_times):
        # Section 5: "relative humidities above 80% or 90%" were seen.
        rh = weather.relative_humidity(campaign_times)
        assert (rh > 90.0).mean() > 0.05


class TestQueries:
    def test_scalar_query_returns_float(self, weather):
        t = SimClock().at(2010, 3, 1)
        assert isinstance(weather.temperature(t), float)

    def test_array_query_returns_array(self, weather):
        t = SimClock().at(2010, 3, 1) + np.arange(3) * HOUR
        assert weather.temperature(t).shape == (3,)

    def test_out_of_span_raises(self, weather):
        with pytest.raises(ValueError):
            weather.temperature(weather.end_time + DAY)

    def test_sample_bundles_consistent_state(self, weather):
        t = SimClock().at(2010, 3, 1, 12)
        sample = weather.sample(t)
        assert isinstance(sample, WeatherSample)
        assert sample.temp_c == pytest.approx(weather.temperature(t))
        assert sample.dewpoint_c <= sample.temp_c

    def test_series_matches_individual_samples(self, weather):
        clock = SimClock()
        times = [clock.at(2010, 3, 1), clock.at(2010, 3, 2)]
        series = weather.series(times)
        assert [s.time for s in series] == times
        assert series[0] == weather.sample(times[0])

    def test_sample_validation_rejects_dewpoint_above_temp(self):
        with pytest.raises(ValueError):
            WeatherSample(
                time=0.0, temp_c=0.0, dewpoint_c=5.0, rh_percent=100.0,
                wind_ms=1.0, solar_wm2=0.0, cloud_fraction=0.5,
            )


#: ``WeatherSample`` fields and the generator series each one reads.
_SAMPLED = [
    ("temp_c", "_temp"),
    ("dewpoint_c", "_dewpoint"),
    ("wind_ms", "_wind"),
    ("solar_wm2", "_solar"),
    ("cloud_fraction", "_cloud"),
    ("precip_mm_h", "_precip"),
]


class TestSampleInterpolation:
    """``sample`` finds the hourly bracket once for all six series; each
    field must be bit-identical to ``np.interp`` and to the scalar
    ``_interp`` path, and RH must follow from the two it is computed from."""

    def _check(self, weather, t):
        sample = weather.sample(t)
        for field, series in _SAMPLED:
            values = getattr(weather, series)
            got = getattr(sample, field)
            assert type(got) is float
            assert got == float(np.interp(np.array([t]), weather._grid_t, values)[0])
            assert got == weather._interp(t, values)
        assert sample.rh_percent == float(
            relative_humidity_from_dewpoint(sample.temp_c, sample.dewpoint_c)
        )

    @given(frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_random_times(self, weather, frac):
        t = weather.start_time + frac * (weather.end_time - weather.start_time)
        self._check(weather, t)

    def test_grid_points_and_span_ends(self, weather):
        grid = weather._grid_t
        rng = np.random.default_rng(1)
        for i in [0, 1, len(grid) - 2, len(grid) - 1, *rng.integers(0, len(grid), 50)]:
            self._check(weather, float(grid[i]))
        for t in (
            weather.start_time - 5e-7,
            np.nextafter(weather.start_time, np.inf),
            np.nextafter(weather.end_time, -np.inf),
            weather.end_time + 5e-7,
        ):
            self._check(weather, float(t))

    @pytest.mark.parametrize("offset", [-1.0, 1.0, -DAY, DAY])
    def test_out_of_span_raises(self, weather, offset):
        edge = weather.start_time if offset < 0 else weather.end_time
        with pytest.raises(ValueError, match="outside generated span"):
            weather.sample(edge + offset)


class TestSolarElevation:
    def test_midnight_sun_absent_in_helsinki_february(self):
        assert solar_elevation_deg(60.2, 43.0, 0.0) < 0.0

    def test_noon_higher_than_morning(self):
        noon = solar_elevation_deg(60.2, 100.0, 12.0)
        morning = solar_elevation_deg(60.2, 100.0, 8.0)
        assert noon > morning

    def test_spring_noon_higher_than_winter_noon(self):
        winter = solar_elevation_deg(60.2, 43.0, 12.0)
        spring = solar_elevation_deg(60.2, 110.0, 12.0)
        assert spring > winter + 15.0
