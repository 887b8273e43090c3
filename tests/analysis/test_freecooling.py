"""Tests for the free-cooling feasibility analysis."""

import itertools

import pytest

from repro.analysis.freecooling import (
    SiteAssessment,
    assess_site,
    compare_sites,
)
from repro.climate.sites import (
    ALL_SITES,
    HELSINKI_FULL_YEAR,
    NE_ENGLAND_FULL_YEAR,
    NEW_MEXICO_FULL_YEAR,
    SINGAPORE_FULL_YEAR,
)


@pytest.fixture(scope="module")
def helsinki():
    return assess_site(HELSINKI_FULL_YEAR, seed=0)


class TestAssessment:
    def test_helsinki_is_essentially_always_free(self, helsinki):
        # The paper's thesis: a Finnish site needs no chillers.
        assert helsinki.free_fraction > 0.97

    def test_singapore_is_essentially_never_free(self):
        assessment = assess_site(SINGAPORE_FULL_YEAR, seed=0)
        assert assessment.free_fraction < 0.3

    def test_new_mexico_between(self):
        assessment = assess_site(NEW_MEXICO_FULL_YEAR, seed=0)
        assert 0.6 < assessment.free_fraction < 0.98

    def test_savings_increase_with_free_fraction(self):
        ranked = compare_sites(ALL_SITES, seed=0)
        savings = [a.cooling_energy_savings for a in ranked]
        assert savings == sorted(savings, reverse=True)

    def test_blended_cooling_bounds(self, helsinki):
        # Blended draw sits between fans-only and fans + full chillers.
        assert helsinki.fan_kw <= helsinki.blended_cooling_kw
        assert helsinki.blended_cooling_kw <= (
            helsinki.fan_kw + helsinki.chiller_cooling_kw
        )

    def test_full_year_swept(self, helsinki):
        assert helsinki.hours_total >= 364 * 24

    def test_grid_covers_span_inclusively(self, helsinki):
        # 365 days of hourly grid = 8760 intervals = 8761 points; the old
        # half-open ``np.arange`` silently dropped the final hour.
        assert helsinki.hours_total == 365 * 24 + 1

    def test_hours_above_limit_complements_free(self, helsinki):
        assert helsinki.hours_above_limit == (
            helsinki.hours_total - helsinki.hours_free
        )

    def test_describe_mentions_site(self, helsinki):
        assert "helsinki" in helsinki.describe()


class TestSavingsRegression:
    """Pins for the fixed savings baseline (chillers alone, no fans).

    ``savings = free_fraction - fan_kw / chiller_kw``: the paper-plant
    numbers put the cold sites comfortably past Intel's ~67 % claim and
    HP's ~40 % claim, and leave Singapore barely positive.  These values
    regress only if the baseline convention or the weather grid drifts.
    """

    EXPECTED = {
        "ne-england-full-year": (1.0000, 0.9458),
        "helsinki-2010-full-year": (0.9999, 0.9457),
        "new-mexico-full-year": (0.8895, 0.8354),
        "singapore-full-year": (0.0885, 0.0343),
    }

    def test_stock_site_pins(self):
        for profile in ALL_SITES:
            assessment = assess_site(profile, seed=0)
            fraction, savings = self.EXPECTED[profile.name]
            assert assessment.free_fraction == pytest.approx(fraction, abs=5e-4)
            assert assessment.cooling_energy_savings == pytest.approx(
                savings, abs=5e-4
            )

    def test_cold_sites_beat_the_industry_claims(self):
        helsinki = assess_site(HELSINKI_FULL_YEAR, seed=0)
        ne_england = assess_site(NE_ENGLAND_FULL_YEAR, seed=0)
        assert helsinki.cooling_energy_savings > 0.67  # Intel's number
        assert ne_england.cooling_energy_savings > 0.40  # HP's number

    def test_no_free_hours_means_negative_savings(self):
        # The retrofit adds fan draw without displacing chiller energy.
        assessment = SiteAssessment(
            site="x", intake_limit_c=27.0, approach_c=2.0,
            hours_total=100, hours_free=0, outside_min_c=30.0,
            outside_max_c=40.0, chiller_cooling_kw=55.4, fan_kw=3.0,
        )
        assert assessment.cooling_energy_savings == pytest.approx(-3.0 / 55.4)

    def test_all_free_hours_savings_below_unity_by_fan_share(self):
        assessment = SiteAssessment(
            site="x", intake_limit_c=27.0, approach_c=2.0,
            hours_total=100, hours_free=100, outside_min_c=-20.0,
            outside_max_c=10.0, chiller_cooling_kw=55.4, fan_kw=3.0,
        )
        assert assessment.cooling_energy_savings == pytest.approx(
            1.0 - 3.0 / 55.4
        )


class TestCompareSites:
    def test_ranked_best_first(self):
        ranked = compare_sites(ALL_SITES, seed=0)
        fractions = [a.free_fraction for a in ranked]
        assert fractions == sorted(fractions, reverse=True)

    def test_helsinki_beats_new_mexico(self):
        # The geographic-extension claim, quantified.
        ranked = {a.site: a.free_fraction for a in compare_sites(ALL_SITES, seed=0)}
        assert ranked["helsinki-2010-full-year"] > ranked["new-mexico-full-year"]
        assert ranked["new-mexico-full-year"] > ranked["singapore-full-year"]

    def test_ranking_is_permutation_invariant(self):
        # Ties (two 100 %-free cold sites) used to leave the order at the
        # mercy of the input ordering; the (-fraction, -savings, name)
        # key makes it a total order.
        reference = [a.site for a in compare_sites(ALL_SITES, seed=0)]
        for ordering in itertools.permutations(ALL_SITES):
            assert [a.site for a in compare_sites(ordering, seed=0)] == reference

    def test_exact_ties_break_by_name(self):
        # Two copies of the always-free site under different names must
        # rank alphabetically regardless of input order.
        import dataclasses

        clone = dataclasses.replace(
            NE_ENGLAND_FULL_YEAR, name="aa-clone-of-ne-england"
        )
        for pair in ([NE_ENGLAND_FULL_YEAR, clone], [clone, NE_ENGLAND_FULL_YEAR]):
            ranked = compare_sites(pair, seed=0)
            assert [a.site for a in ranked] == [
                "aa-clone-of-ne-england", "ne-england-full-year",
            ]


class TestSensitivity:
    """The free fraction as the intake ceiling moves -- the knob a
    Greenfield designer actually turns (hotter-rated gear buys hours)."""

    @staticmethod
    def _fractions(profile, limits_c):
        return [
            assess_site(profile, intake_limit_c=limit, seed=0).free_fraction
            for limit in limits_c
        ]

    def test_fraction_monotone_in_ceiling(self):
        fractions = self._fractions(NEW_MEXICO_FULL_YEAR, [20.0, 25.0, 30.0, 35.0])
        assert fractions == sorted(fractions)

    def test_generous_ceiling_reaches_unity(self):
        assert self._fractions(SINGAPORE_FULL_YEAR, [45.0]) == [pytest.approx(1.0)]

    @pytest.mark.parametrize("profile", ALL_SITES, ids=lambda p: p.name)
    def test_property_higher_ceiling_never_loses_hours(self, profile):
        # Monotonicity property over a dense ceiling ladder: raising the
        # intake limit can only admit more outside-air hours.
        fractions = self._fractions(profile, [float(c) for c in range(-5, 46, 2)])
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))


class TestValidation:
    def test_free_hours_bounded(self):
        with pytest.raises(ValueError):
            SiteAssessment(
                site="x", intake_limit_c=27.0, approach_c=2.0,
                hours_total=10, hours_free=11, outside_min_c=0.0,
                outside_max_c=1.0, chiller_cooling_kw=55.4, fan_kw=3.0,
            )

    def test_negative_approach_rejected(self):
        with pytest.raises(ValueError):
            assess_site(HELSINKI_FULL_YEAR, approach_c=-1.0)

    def test_zero_hour_assessment_rejected(self):
        # The hours_total == 0 guard in free_fraction was unreachable
        # from assess_site and silently reported 0.0; degenerate
        # assessments are now a construction-time error.
        with pytest.raises(ValueError):
            SiteAssessment(
                site="x", intake_limit_c=27.0, approach_c=2.0,
                hours_total=0, hours_free=0, outside_min_c=0.0,
                outside_max_c=1.0, chiller_cooling_kw=55.4, fan_kw=3.0,
            )

    def test_degenerate_profile_span_rejected(self):
        import datetime as dt

        from repro.climate.profiles import ClimateProfile

        flat = ClimateProfile(
            name="instant",
            anchors=(
                (dt.datetime(2010, 1, 1), 0.0),
                (dt.datetime(2010, 1, 1), 0.0),
            ),
        )
        with pytest.raises(ValueError, match="spans no time"):
            assess_site(flat, seed=0)
