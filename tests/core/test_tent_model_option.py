"""Tests for running the campaign on the two-node tent model."""

import datetime as dt
import hashlib
import os

import pytest

from repro import Experiment, ExperimentConfig
from repro.core.builder import CampaignBuilder
from repro.runner.records import record_from_results
from repro.thermal.tent import Tent
from repro.thermal.twonode import TwoNodeTent


class TestTentModelOption:
    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(tent_model="three-node")

    def test_default_is_single_node(self):
        exp = Experiment(ExperimentConfig(seed=2))
        assert isinstance(exp.fleet.tent, Tent)

    def test_two_node_fleet_builds(self):
        exp = Experiment(ExperimentConfig(seed=2, tent_model="two-node"))
        assert isinstance(exp.fleet.tent, TwoNodeTent)

    def test_campaign_runs_on_two_node_tent(self):
        config = ExperimentConfig(seed=2, tent_model="two-node")
        results = Experiment(config).run(until=dt.datetime(2010, 3, 10))
        # Modifications reached the two-node tent.
        assert "R" in results.tent.modification_times()
        # The tent heats, the logger records, the workload runs.
        inside = results.inside_temperature_raw()
        assert not inside.empty
        assert results.ledger.total_runs > 1000

    def test_models_agree_on_campaign_scale(self):
        until = dt.datetime(2010, 3, 10)
        single = Experiment(ExperimentConfig(seed=2)).run(until=until)
        double = Experiment(
            ExperimentConfig(seed=2, tent_model="two-node")
        ).run(until=until)
        clock = single.clock
        window = (clock.at(2010, 3, 2), clock.at(2010, 3, 10))
        mean_single = single.inside_temperature_raw().window(*window).mean()
        mean_double = double.inside_temperature_raw().window(*window).mean()
        assert mean_double == pytest.approx(mean_single, abs=3.0)


class TestTwoNodeDigest:
    def test_two_node_campaign_keeps_its_pinned_seed7_digest(self):
        until = dt.datetime(2010, 3, 6, 12, 0)
        campaign = CampaignBuilder(
            ExperimentConfig(seed=7, tent_model="two-node")
        ).build()
        results = campaign.run(until=until)
        record = record_from_results(7, results, until=until).canonical_json()
        pin_path = os.path.join(
            os.path.dirname(__file__), "..", "data", "seed7_twonode_record.sha256"
        )
        with open(pin_path) as fh:
            pinned = fh.read().split()[0]
        actual = hashlib.sha256(record.encode("utf-8")).hexdigest()
        assert actual == pinned, "the two-node tent perturbed the seed-7 record"
