"""Tests for the Magnus-formula psychrometrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.climate.psychro import (
    absolute_humidity,
    condensation_margin,
    condenses,
    dewpoint,
    relative_humidity_from_dewpoint,
    rh_from_absolute_humidity,
    saturation_vapor_pressure,
    vapor_pressure,
)

temps = st.floats(min_value=-40.0, max_value=40.0)
humidities = st.floats(min_value=1.0, max_value=100.0)


class TestSaturationVaporPressure:
    def test_reference_value_at_zero(self):
        assert saturation_vapor_pressure(0.0) == pytest.approx(6.112, rel=1e-3)

    def test_reference_value_at_twenty(self):
        # Standard tables: ~23.4 hPa at 20 degC.
        assert saturation_vapor_pressure(20.0) == pytest.approx(23.4, rel=0.02)

    def test_monotone_in_temperature(self):
        t = np.linspace(-40.0, 40.0, 200)
        es = saturation_vapor_pressure(t)
        assert np.all(np.diff(es) > 0)

    def test_ice_branch_below_water_branch_subzero(self):
        # e_s over ice is lower than over supercooled water below 0 degC.
        assert saturation_vapor_pressure(-10.0, over_ice=True) < saturation_vapor_pressure(-10.0)

    def test_branches_agree_at_zero(self):
        assert saturation_vapor_pressure(0.0, over_ice=True) == pytest.approx(
            saturation_vapor_pressure(0.0), rel=1e-6
        )

    def test_vectorised(self):
        out = saturation_vapor_pressure(np.array([0.0, 10.0]))
        assert out.shape == (2,)


class TestDewpoint:
    def test_saturated_air_dewpoint_equals_temperature(self):
        assert dewpoint(5.0, 100.0) == pytest.approx(5.0, abs=0.01)

    def test_dewpoint_below_temperature_when_unsaturated(self):
        assert dewpoint(5.0, 60.0) < 5.0

    @given(temp=temps, rh=humidities)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_rh_from_dewpoint(self, temp, rh):
        td = dewpoint(temp, rh)
        assert relative_humidity_from_dewpoint(temp, td) == pytest.approx(rh, abs=0.5)

    @given(temp=temps, rh=humidities)
    @settings(max_examples=200, deadline=None)
    def test_dewpoint_never_exceeds_temperature(self, temp, rh):
        assert dewpoint(temp, rh) <= temp + 1e-6

    def test_zero_rh_clipped_not_infinite(self):
        assert np.isfinite(dewpoint(10.0, 0.0))

    def test_supersaturation_reported_as_100(self):
        assert relative_humidity_from_dewpoint(5.0, 8.0) == 100.0

    def test_scalar_path_matches_the_array_path_bit_for_bit(self):
        rng = np.random.default_rng(4)
        temp = rng.uniform(-40.0, 40.0, 20_000)
        dew = temp - rng.uniform(-3.0, 20.0, temp.size)  # some supersaturated
        array = relative_humidity_from_dewpoint(temp, dew)
        scalar = [
            relative_humidity_from_dewpoint(t, d)
            for t, d in zip(temp.tolist(), dew.tolist())
        ]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(np.array(scalar).view(np.int64), array.view(np.int64))
        assert 100.0 in scalar


class TestAbsoluteHumidity:
    def test_reference_value(self):
        # Saturated air at 20 degC holds ~17.3 g/m^3.
        assert absolute_humidity(20.0, 100.0) == pytest.approx(17.3, rel=0.03)

    @given(temp=temps, rh=humidities)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_through_vapor_density(self, temp, rh):
        ah = absolute_humidity(temp, rh)
        assert rh_from_absolute_humidity(temp, ah) == pytest.approx(rh, abs=0.5)

    def test_monotone_in_rh(self):
        assert absolute_humidity(10.0, 80.0) > absolute_humidity(10.0, 40.0)

    def test_warming_air_lowers_rh_at_fixed_vapor(self):
        # The tent mechanism: same vapor content, warmer air, lower RH.
        ah = absolute_humidity(-10.0, 90.0)
        assert rh_from_absolute_humidity(5.0, ah) < 90.0


class TestCondensation:
    def test_margin_positive_for_heated_case(self):
        # Paper Section 5: powered cases run warmer than ambient dewpoint.
        assert condensation_margin(10.0, 0.0, 90.0) > 0

    def test_condenses_when_surface_below_dewpoint(self):
        td = dewpoint(15.0, 95.0)
        assert condenses(td - 1.0, 15.0, 95.0)

    def test_no_condensation_at_exact_ambient_temperature_unsaturated(self):
        assert not condenses(15.0, 15.0, 80.0)

    def test_margin_scalar_type(self):
        assert isinstance(condensation_margin(10.0, 0.0, 90.0), float)

