"""Cross-cutting property-based tests.

Module-level hypothesis suites live next to their modules; this file
holds the cross-cutting invariants that span subsystems -- the properties
a reviewer would want to hold at *any* seed and parameter draw, not just
the calibrated defaults.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.outliers import detect_removal_outliers
from repro.analysis.series import TimeSeries
from repro.climate.generator import WeatherGenerator
from repro.climate.profiles import HELSINKI_2010
from repro.hardware.faults import hazard_probability
from repro.sim.clock import HOUR, SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.thermal.tent import TentEnvelope


class TestWeatherAcrossSeeds:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_physical_invariants_hold_at_any_seed(self, seed):
        weather = WeatherGenerator(HELSINKI_2010, RngStreams(seed))
        clock = SimClock()
        times = np.arange(clock.at(2010, 2, 12), clock.at(2010, 5, 12), 12 * HOUR)
        temps = np.asarray(weather.temperature(times))
        dew = np.asarray(weather.dewpoint(times))
        rh = np.asarray(weather.relative_humidity(times))
        assert np.all(np.isfinite(temps))
        assert np.all(dew <= temps + 1e-9)
        assert np.all((rh >= 0.0) & (rh <= 100.0))
        assert -45.0 < temps.min() and temps.max() < 45.0


class TestEnvelopeMonotonicity:
    @given(
        wind_lo=st.floats(min_value=0.0, max_value=10.0),
        wind_hi=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_ua_monotone_in_wind(self, wind_lo, wind_hi):
        envelope = TentEnvelope()
        lo, hi = sorted((wind_lo, wind_hi))
        assert envelope.ua_w_per_k(lo) <= envelope.ua_w_per_k(hi) + 1e-12

    @given(irradiance=st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=100, deadline=None)
    def test_foil_never_increases_solar_gain(self, irradiance):
        plain = TentEnvelope()
        foiled = plain.with_modification(
            __import__("repro.thermal.tent", fromlist=["Modification"]).Modification.REFLECTIVE_FOIL
        )
        assert foiled.solar_gain_w(irradiance) <= plain.solar_gain_w(irradiance) + 1e-12


class TestHazardComposition:
    @given(
        rate=st.floats(min_value=0.0, max_value=10.0),
        dt_a=st.floats(min_value=0.0, max_value=1e5),
        dt_b=st.floats(min_value=0.0, max_value=1e5),
    )
    @settings(max_examples=150, deadline=None)
    def test_survival_multiplies_over_subintervals(self, rate, dt_a, dt_b):
        # P(survive a+b) == P(survive a) * P(survive b): the memoryless
        # property the tick loop relies on when dt varies.
        survive_ab = 1.0 - hazard_probability(rate, dt_a + dt_b)
        survive_a = 1.0 - hazard_probability(rate, dt_a)
        survive_b = 1.0 - hazard_probability(rate, dt_b)
        assert survive_ab == pytest.approx(survive_a * survive_b, rel=1e-9, abs=1e-12)


class TestOutlierDetectorSafety:
    @given(
        temps=st.lists(
            st.floats(min_value=-30.0, max_value=15.0), min_size=1, max_size=100
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_never_flags_sub_indoor_data(self, temps):
        # Whatever the tent does below the indoor band, nothing is removed.
        mask = detect_removal_outliers(np.array(temps), indoor_band_c=(18.0, 25.0))
        assert not mask.any()


class TestEngineOrdering:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e4), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_random_schedules_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        sim.register("mark", lambda: fired.append(sim.now))
        for delay in delays:
            sim.schedule_key(delay, "mark")
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestSeriesAlgebra:
    @given(
        values=st.lists(
            st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=50
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_self_difference_is_zero(self, values):
        ts = TimeSeries(60.0 * np.arange(len(values)), np.array(values))
        diff = ts.aligned_difference(ts)
        assert np.allclose(diff.values, 0.0)

    @given(
        values=st.lists(
            st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=50
        ),
        lo=st.floats(min_value=0.0, max_value=3000.0),
        width=st.floats(min_value=0.0, max_value=3000.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_is_a_subset(self, values, lo, width):
        ts = TimeSeries(60.0 * np.arange(len(values)), np.array(values))
        windowed = ts.window(lo, lo + width)
        assert len(windowed) <= len(ts)
        if not windowed.empty:
            assert windowed.times[0] >= lo
            assert windowed.times[-1] < lo + width
