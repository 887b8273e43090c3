"""Tests for the census-timeline analysis."""

import pytest

from repro.analysis.timeline import CensusPoint, census_timeline
from repro.sim.clock import DAY


class TestCensusTimeline:
    def test_weekly_points_cover_the_campaign(self, full_results):
        points = census_timeline(full_results, period_days=7.0)
        campaign_days = (
            full_results.end_time
            - full_results.clock.to_seconds(full_results.config.test_start)
        ) / DAY
        # Weekly points plus the closing end-of-campaign point.
        assert len(points) in (int(campaign_days // 7), int(campaign_days // 7) + 1)
        assert points[-1].time == pytest.approx(full_results.end_time)

    def test_installed_hosts_grow_to_eighteen(self, full_results):
        points = census_timeline(full_results)
        installed = [p.hosts_installed for p in points]
        assert installed == sorted(installed)
        assert installed[0] >= 6  # the Feb 19 pairs are in by week one
        assert installed[-1] == 18

    def test_cumulative_quantities_monotone(self, full_results):
        points = census_timeline(full_results)
        for attr in ("hosts_failed", "failure_events", "wrong_hashes", "runs"):
            values = [getattr(p, attr) for p in points]
            assert values == sorted(values), attr

    def test_final_point_matches_the_ledger(self, full_results):
        points = census_timeline(full_results)
        final = points[-1]
        assert final.wrong_hashes == full_results.ledger.total_wrong_hashes
        assert final.hosts_failed == full_results.overall_census().hosts_failed

    def test_snapshot_week_agrees_with_snapshot(self, full_results):
        snapshot = full_results.snapshot
        points = census_timeline(full_results)
        at_snapshot = max(
            (p for p in points if p.time <= snapshot.time), key=lambda p: p.time
        )
        assert at_snapshot.hosts_failed == len(snapshot.failed_host_ids)

    def test_rate_property(self):
        point = CensusPoint(0.0, 18, 1, 2, 5, 1000)
        assert point.failure_rate_percent == pytest.approx(100.0 / 18)
        empty = CensusPoint(0.0, 0, 0, 0, 0, 0)
        assert empty.failure_rate_percent == 0.0

    def test_invalid_period_rejected(self, full_results):
        with pytest.raises(ValueError):
            census_timeline(full_results, period_days=0.0)


class TestObservedFraction:
    def test_defaults_to_fully_observed(self):
        point = CensusPoint(0.0, 18, 1, 2, 5, 1000)
        assert point.observed_fraction == 1.0

    def test_clean_run_is_nearly_fully_observed(self, full_results):
        points = census_timeline(full_results)
        for point in points:
            assert 0.0 < point.observed_fraction <= 1.0
        # Hardware outages are rare: the campaign-wide cumulative
        # fraction stays high even though individual hosts die.
        assert points[-1].observed_fraction > 0.95
