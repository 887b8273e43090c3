"""Tests for the figure-data builders."""

import pytest

from repro.analysis.figures import (
    fig2_timeline,
    fig3_temperatures,
    fig4_humidities,
)


class TestFig2:
    def test_nine_initial_tent_rows_plus_replacement(self, full_results):
        timeline = fig2_timeline(full_results)
        assert len(timeline.rows) == 10
        assert timeline.host_ids()[-1] == 19  # replacement installed last

    def test_rows_sorted_by_install_time(self, full_results):
        rows = fig2_timeline(full_results).rows
        times = [r.install_time for r in rows]
        assert times == sorted(times)

    def test_first_installs_on_feb_19(self, full_results):
        timeline = fig2_timeline(full_results)
        first = timeline.rows[0]
        assert full_results.clock.format(first.install_time).startswith("2010-02-19")
        assert timeline.test_start < first.install_time + 1.0

    def test_replacement_row_links_to_host_15(self, full_results):
        rows = fig2_timeline(full_results).rows
        replacement = next(r for r in rows if r.host_id == 19)
        assert replacement.replacement_for == 15
        removed = next(r for r in rows if r.host_id == 15)
        assert removed.removed_time is not None

    def test_short_run_has_only_early_rows(self, short_results):
        timeline = fig2_timeline(short_results)
        assert 3 <= len(timeline.rows) <= 5  # Feb 19 trio + Feb 24 host


class TestFig3:
    def test_series_cover_campaign(self, full_results):
        data = fig3_temperatures(full_results)
        assert len(data.outside) > 1000
        assert len(data.inside) > 1000

    def test_inside_starts_at_lascar_arrival(self, full_results):
        data = fig3_temperatures(full_results)
        assert data.inside.times[0] >= full_results.lascar.arrival_time

    def test_events_include_all_four_letters(self, full_results):
        data = fig3_temperatures(full_results)
        assert set("RIBF") <= set(data.events)

    def test_events_in_paper_order(self, full_results):
        events = fig3_temperatures(full_results).events
        assert events["R"] < events["I"] < events["B"] < events["F"]

    def test_outliers_removed_from_inside_series(self, full_results):
        data = fig3_temperatures(full_results)
        raw = full_results.inside_temperature_raw()
        assert len(data.inside) < len(raw)

    def test_modifications_narrow_the_excess(self, full_results):
        data = fig3_temperatures(full_results)
        excess = data.inside_excess()
        clock = full_results.clock
        before = excess.window(clock.at(2010, 3, 1), clock.at(2010, 3, 5))
        after = excess.window(clock.at(2010, 4, 10), clock.at(2010, 5, 10))
        assert after.mean() < 0.6 * before.mean()


class TestFig4:
    def test_inside_rh_smoother_than_outside(self, full_results):
        data = fig4_humidities(full_results)
        assert data.stability_ratio() > 1.0

    def test_inside_series_cleaned_with_companion(self, full_results):
        data = fig4_humidities(full_results)
        raw = full_results.inside_humidity_raw()
        assert len(data.inside) < len(raw)

    def test_rh_bounds(self, full_results):
        data = fig4_humidities(full_results)
        for series in (data.inside, data.outside):
            assert series.min() >= 0.0
            assert series.max() <= 100.0

    def test_humidity_varies_more_after_airflow_mods(self, full_results):
        # "As we increase air flow ... the humidity also begins to vary
        # more intensely."
        data = fig4_humidities(full_results)
        clock = full_results.clock
        before = data.inside.window(clock.at(2010, 3, 1), clock.at(2010, 3, 12))
        after = data.inside.window(clock.at(2010, 4, 1), clock.at(2010, 5, 10))
        assert after.std() > before.std()

