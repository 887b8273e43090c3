"""Tests for the empirical heat-budget (UA recovery) analysis."""

import pytest

from repro.analysis.heatbudget import (
    EraEstimate,
    estimate_ua_by_era,
    summarize,
)


class TestEraEstimates:
    def test_one_era_per_intervention(self, full_results):
        estimates = estimate_ua_by_era(full_results)
        labels = [e.label for e in estimates]
        assert labels[0] == "pre-mods"
        for letter in "IBF":  # R precedes the Lascar? no: R is Mar 5, arrival Mar 1
            assert f"after-{letter}" in labels

    def test_eras_are_contiguous(self, full_results):
        estimates = estimate_ua_by_era(full_results)
        for previous, current in zip(estimates, estimates[1:]):
            assert current.start == pytest.approx(previous.end)

    def test_ua_estimates_are_physical(self, full_results):
        estimates = estimate_ua_by_era(full_results)
        for est in estimates:
            if est.ua_w_per_k is not None:
                assert 5.0 < est.ua_w_per_k < 500.0

    def test_conductance_rises_through_the_campaign(self, full_results):
        # The identifiability check: the estimated envelope opens up.
        estimates = estimate_ua_by_era(full_results)
        usable = [e.ua_w_per_k for e in estimates if e.ua_w_per_k is not None]
        assert len(usable) >= 3
        assert usable[-1] > 1.5 * usable[0]

    def test_airflow_mods_detected(self, full_results):
        estimates = estimate_ua_by_era(full_results)
        labels = [e.label for e in estimates]
        # I, B, F all raise conductance; the foil (R) does not.
        for letter in "IBF":
            index = labels.index(f"after-{letter}")
            before = estimates[index - 1].ua_w_per_k
            after = estimates[index].ua_w_per_k
            assert before is None or after is None or after > before

    def test_gap_narrows_as_ua_grows(self, full_results):
        estimates = [
            e for e in estimate_ua_by_era(full_results) if e.mean_gap_c is not None
        ]
        assert estimates[-1].mean_gap_c < estimates[0].mean_gap_c


class TestHelpers:
    def test_summarize_renders_table(self, full_results):
        estimates = estimate_ua_by_era(full_results)
        table = summarize(estimates, full_results.clock)
        assert "UA (W/K)" in table
        assert "pre-mods" in table

    def test_era_validation(self):
        with pytest.raises(ValueError):
            EraEstimate("x", 10.0, 10.0, 0, None, None, None)

    def test_empty_without_lascar_data(self, short_results):
        # The short run ends Mar 3; the logger arrived Mar 1, so this has
        # data -- but a run truncated before arrival must return [].
        import datetime as dt

        from repro import Experiment, ExperimentConfig

        results = Experiment(ExperimentConfig(seed=2)).run(
            until=dt.datetime(2010, 2, 25)
        )
        assert estimate_ua_by_era(results) == []
