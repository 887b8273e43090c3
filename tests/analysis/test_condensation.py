"""Tests for the condensation-sweep analysis."""

import numpy as np
import pytest

from repro.analysis.condensation import (
    minimum_safe_rise_c,
    sweep_case_rises,
)
from repro.analysis.series import TimeSeries


def humid_cold_series(n=200, rh_percent=97.0):
    times = 600.0 * np.arange(n)
    temps = -5.0 + 3.0 * np.sin(np.linspace(0, 8, n))
    rh = np.full(n, rh_percent)
    return TimeSeries(times, temps), TimeSeries(times, rh)


class TestSweep:
    def test_zero_rise_condenses_in_saturated_air(self):
        temp, rh = humid_cold_series()
        points = sweep_case_rises(temp, rh, [0.0, 5.0])
        assert points[0].condensing_fraction == 0.0 or points[0].min_margin_c <= 1.0
        # 97 % RH: dewpoint sits ~0.4 degC below air; a 5 degC rise is safe.
        assert points[1].safe

    def test_margin_grows_with_rise(self):
        temp, rh = humid_cold_series()
        points = sweep_case_rises(temp, rh, [0.0, 2.0, 4.0, 8.0])
        margins = [p.min_margin_c for p in points]
        assert margins == sorted(margins)
        fractions = [p.condensing_fraction for p in points]
        assert fractions == sorted(fractions, reverse=True)

    def test_campaign_sweep_matches_paper_claim(self, full_results):
        temp = full_results.inside_temperature_raw()
        rh = full_results.inside_humidity_raw()
        points = sweep_case_rises(temp, rh, [2.9])  # vendor-A average rise
        assert points[0].safe

    def test_mismatched_series_rejected(self):
        temp, rh = humid_cold_series()
        with pytest.raises(ValueError):
            sweep_case_rises(temp, rh.window(0.0, 600.0 * 100), [1.0])

    def test_negative_rise_rejected(self):
        temp, rh = humid_cold_series()
        with pytest.raises(ValueError):
            sweep_case_rises(temp, rh, [-1.0])

    def test_empty_series_rejected(self):
        empty = TimeSeries(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError):
            sweep_case_rises(empty, empty, [1.0])


class TestMinimumSafeRise:
    def test_saturated_air_needs_a_real_rise(self):
        # At exactly 100 % RH the dewpoint equals the air temperature, so
        # an unheated case condenses and any positive rise rescues it.
        temp, rh = humid_cold_series(rh_percent=100.0)
        safe = minimum_safe_rise_c(temp, rh)
        assert 0.0 < safe < 2.0

    def test_dry_air_needs_nothing(self):
        times = 600.0 * np.arange(50)
        temp = TimeSeries(times, np.full(50, 10.0))
        rh = TimeSeries(times, np.full(50, 30.0))
        assert minimum_safe_rise_c(temp, rh) == 0.0

    def test_campaign_minimum_is_modest(self, full_results):
        # The design takeaway: a watt-scale idle load keeps gear dry.
        safe = minimum_safe_rise_c(
            full_results.inside_temperature_raw(),
            full_results.inside_humidity_raw(),
        )
        assert safe < 4.0

    def test_resolution_validated(self):
        temp, rh = humid_cold_series()
        with pytest.raises(ValueError):
            minimum_safe_rise_c(temp, rh, resolution_c=0.0)

