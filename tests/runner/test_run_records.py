"""Tests for run records and config digests."""

import dataclasses
import datetime as dt
import json

import pytest

from repro import Experiment, ExperimentConfig
from repro.analysis.seedsweep import outcome_from_results
from repro.core.scenarios import SCENARIOS
from repro.runner.records import (
    RECORD_SCHEMA,
    config_digest,
    record_from_json_dict,
    record_from_results,
)
from repro.telemetry import Telemetry

UNTIL = dt.datetime(2010, 2, 21)


@pytest.fixture(scope="module")
def tiny_record():
    results = Experiment(ExperimentConfig(seed=5)).run(until=UNTIL)
    return record_from_results(5, results, until=UNTIL, elapsed_s=1.25), results


class TestConfigDigest:
    def test_digest_is_stable(self):
        assert config_digest(ExperimentConfig(seed=7)) == config_digest(
            ExperimentConfig(seed=7)
        )

    def test_digest_distinguishes_seeds(self):
        assert config_digest(ExperimentConfig(seed=7)) != config_digest(
            ExperimentConfig(seed=8)
        )

    def test_digest_distinguishes_any_field(self):
        base = ExperimentConfig(seed=7)
        shorter = base.with_end(dt.datetime(2010, 4, 1))
        assert config_digest(base) != config_digest(shorter)

    def test_every_scenario_is_digestable(self):
        digests = {name: config_digest(factory(seed=7)) for name, factory in SCENARIOS.items()}
        assert len(set(digests.values())) == len(digests)


class TestRunRecord:
    def test_census_matches_outcome_from_results(self, tiny_record):
        record, results = tiny_record
        assert record.to_outcome() == outcome_from_results(5, results)

    def test_schema_and_key_fields(self, tiny_record):
        record, results = tiny_record
        assert record.schema == RECORD_SCHEMA
        assert record.seed == 5
        assert record.config_digest == config_digest(results.config)
        assert record.until == UNTIL.isoformat()
        assert record.total_runs == results.ledger.total_runs

    def test_event_counts_round_in(self, tiny_record):
        record, results = tiny_record
        assert dict(record.event_counts) == results.event_counts()

    def test_json_round_trip(self, tiny_record):
        record, _ = tiny_record
        rebuilt = record_from_json_dict(json.loads(json.dumps(record.to_json_dict())))
        assert rebuilt == record
        assert rebuilt.canonical_json() == record.canonical_json()

    def test_elapsed_excluded_from_equality_and_canonical_json(self, tiny_record):
        record, _ = tiny_record
        slower = dataclasses.replace(record, elapsed_s=99.0)
        assert slower == record
        assert slower.canonical_json() == record.canonical_json()
        assert "elapsed" not in record.canonical_json()

    def test_series_digests_cover_instruments(self, tiny_record):
        record, _ = tiny_record
        names = [s.name for s in record.series]
        assert "outside_temperature" in names
        outside = next(s for s in record.series if s.name == "outside_temperature")
        assert outside.points > 0
        assert outside.minimum is not None
        # The Lascar logger has not arrived by Feb 21.
        inside = next(s for s in record.series if s.name == "inside_temperature_raw")
        assert inside.points == 0
        assert inside.minimum is None


class TestCounterReads:
    def test_reading_an_absent_counter_leaves_a_record_unchanged(self, tiny_record):
        record, _ = tiny_record
        hub = Telemetry()
        hub.metrics.counter("runner.runs").inc(2)
        traced = dataclasses.replace(record, telemetry=hub)
        copy = record_from_json_dict(json.loads(json.dumps(traced.to_json_dict())))
        assert copy == traced
        canonical = traced.canonical_json()
        assert traced.telemetry.metrics.counter_value("runner.retries") == 0
        assert copy.telemetry.metrics.counter_value("runner.runs") == 2
        assert copy.telemetry == traced.telemetry
        assert copy == traced
        assert traced.canonical_json() == copy.canonical_json() == canonical
