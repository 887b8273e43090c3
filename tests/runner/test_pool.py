"""Tests for the parallel sweep runner and its cache."""

import datetime as dt

import pytest

from repro import ExperimentConfig
from repro.analysis.seedsweep import outcome_from_results
from repro.runner.pool import RunSpec, run_specs, sweep_records, sweep_seeds

UNTIL = dt.datetime(2010, 2, 24)


class TestRunSpec:
    def test_cache_key_shape(self):
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
        key = spec.cache_key()
        assert key.endswith("-7-20100224T000000")
        assert len(key.split("-")[0]) == 16

    def test_full_run_key(self):
        spec = RunSpec(config=ExperimentConfig(seed=7))
        assert spec.cache_key().endswith("-7-full")


class TestValidation:
    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            run_specs([])

    def test_bad_jobs_rejected(self):
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
        with pytest.raises(ValueError):
            run_specs([spec], jobs=0)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            sweep_seeds([], until=UNTIL)


class TestDeterminism:
    def test_serial_and_parallel_records_byte_identical(self):
        seeds = [7, 11, 13]
        serial = sweep_records(seeds, until=UNTIL, jobs=1)
        parallel = sweep_records(seeds, until=UNTIL, jobs=4)
        assert serial.records == parallel.records
        for a, b in zip(serial.records, parallel.records):
            assert a.canonical_json() == b.canonical_json()
        assert [r.seed for r in parallel.records] == seeds

    def test_summary_matches_legacy_serial_sweep(self):
        # sweep_seeds is the drop-in successor of the old serial loop in
        # analysis.seedsweep: same aggregate, whatever the job count.
        summary = sweep_seeds([7, 11], until=UNTIL, jobs=2)
        assert [o.seed for o in summary.outcomes] == [7, 11]
        assert summary.describe()

    def test_record_census_matches_short_fixture(self, short_results):
        record = sweep_records([7], until=dt.datetime(2010, 3, 3), jobs=1).records[0]
        assert record.to_outcome() == outcome_from_results(7, short_results)


class TestCache:
    def test_second_invocation_hits_cache(self, tmp_path):
        cache = str(tmp_path / "runs")
        first = sweep_records([7, 11], until=UNTIL, jobs=1, cache_dir=cache)
        second = sweep_records([7, 11], until=UNTIL, jobs=1, cache_dir=cache)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert second.records == first.records

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = str(tmp_path / "runs")
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
        sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        path = tmp_path / "runs" / f"{spec.cache_key()}.json"
        path.write_text("{not json")
        again = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        assert (again.cache_hits, again.cache_misses) == (0, 1)

    def test_different_config_never_shares_entries(self, tmp_path):
        cache = str(tmp_path / "runs")
        sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        truncated = sweep_records(
            [7],
            until=UNTIL,
            config_factory=lambda seed: ExperimentConfig(seed=seed).with_end(
                dt.datetime(2010, 4, 1)
            ),
            jobs=1,
            cache_dir=cache,
        )
        assert truncated.cache_hits == 0


class TestProgressCallback:
    def test_completed_events_in_spec_order_serially(self):
        events = []
        sweep_records([7, 11], until=UNTIL, jobs=1, progress=events.append)
        assert [(e["kind"], e["label"]) for e in events] == [
            ("completed", "seed 7"),
            ("completed", "seed 11"),
        ]
        assert all(e["attempt"] == 1 for e in events)

    def test_cache_hits_reported_as_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep_records([7], until=UNTIL, cache_dir=cache)
        events = []
        sweep_records([7], until=UNTIL, cache_dir=cache, progress=events.append)
        assert [e["kind"] for e in events] == ["cached"]

    def test_retry_and_failure_events_carry_error(self):
        from repro.runner.faults import Fault, FaultAction, FaultPlan
        from repro.runner.policy import RetryPolicy

        plan = FaultPlan.of(
            Fault(seed=7, attempt=1, action=FaultAction.RAISE),
            Fault(seed=7, attempt=2, action=FaultAction.RAISE),
        )
        events = []
        result = sweep_records(
            [7], until=UNTIL, jobs=1,
            policy=RetryPolicy(
                max_attempts=2, backoff_base_s=0.01, backoff_max_s=0.05
            ),
            faults=plan, strict=False, progress=events.append,
        )
        assert result.failures
        assert [e["kind"] for e in events] == ["retried", "failed"]
        assert all("error" in e for e in events)

    def test_broken_sink_never_kills_the_sweep(self):
        def sink(event):
            raise RuntimeError("telemetry plane down")

        result = sweep_records([7], until=UNTIL, jobs=1, progress=sink)
        assert len(result.records) == 1

    def test_progress_does_not_change_records(self):
        quiet = sweep_records([7], until=UNTIL, jobs=1)
        noisy = sweep_records([7], until=UNTIL, jobs=1, progress=lambda e: None)
        assert [r.canonical_json() for r in quiet.records] == [
            r.canonical_json() for r in noisy.records
        ]

    def test_pooled_sweep_reports_every_spec(self):
        events = []
        sweep_records([7, 11, 13], until=UNTIL, jobs=3, progress=events.append)
        assert sorted(e["label"] for e in events) == ["seed 11", "seed 13", "seed 7"]
        assert {e["kind"] for e in events} == {"completed"}
