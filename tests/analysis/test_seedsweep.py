"""Tests for the seed-sweep aggregator."""

import datetime as dt

import pytest

from repro.analysis.seedsweep import (
    SeedOutcome,
    SweepSummary,
    outcome_from_results,
)
from repro.runner.pool import sweep_seeds


@pytest.fixture(scope="module")
def small_sweep():
    return sweep_seeds(seeds=[1, 2], until=dt.datetime(2010, 2, 24))


class TestSeedOutcome:
    def test_rates(self):
        outcome = SeedOutcome(
            seed=1, hosts_installed=18, hosts_failed=1,
            wrong_hashes=5, total_runs=27_627, sensor_latches=1,
        )
        assert outcome.failure_rate_percent == pytest.approx(5.6, abs=0.1)
        assert outcome.wrong_hash_rate == pytest.approx(5 / 27_627)

    def test_zero_denominators(self):
        outcome = SeedOutcome(1, 0, 0, 0, 0, 0)
        assert outcome.failure_rate_percent == 0.0
        assert outcome.wrong_hash_rate == 0.0


class TestSweep:
    def test_one_outcome_per_seed(self, small_sweep):
        assert [o.seed for o in small_sweep.outcomes] == [1, 2]

    def test_outcomes_reflect_real_runs(self, small_sweep):
        for outcome in small_sweep.outcomes:
            assert outcome.hosts_installed == 18
            assert outcome.total_runs > 500  # the Feb 19 trio ran for days

    def test_pooled_interval_is_a_probability_band(self, small_sweep):
        lo, hi = small_sweep.pooled_failure_interval()
        assert 0.0 <= lo <= hi <= 1.0

    def test_describe_table(self, small_sweep):
        text = small_sweep.describe()
        assert "pooled failure rate" in text
        assert "5.6" in text

    def test_outcome_from_results(self, short_results):
        outcome = outcome_from_results(7, short_results)
        assert outcome.hosts_installed == 18
        assert outcome.wrong_hashes == short_results.ledger.total_wrong_hashes

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep_seeds(seeds=[])
        with pytest.raises(ValueError):
            SweepSummary(outcomes=())

    def test_paper_rate_inside_pooled_band_of_paper_horizon(self, full_results):
        # The default run's own census should sit inside its interval.
        summary = SweepSummary(outcomes=(outcome_from_results(7, full_results),))
        census = full_results.overall_census()
        assert summary.rate_within(census.failure_rate_percent)
