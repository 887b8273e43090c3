"""The telemetry acceptance guarantees, enforced at the runner layer:

- telemetry **off** (the default): records carry no telemetry key and
  stay byte-identical to the pre-telemetry layout;
- telemetry **on**: serial and parallel sweeps produce identical merged
  metric counts (wall-time fields excluded), and enabling telemetry
  never perturbs the simulation itself.
"""

import dataclasses
import datetime as dt
import json

from repro import ExperimentConfig
from repro.runner.local import run_recorded
from repro.runner.pool import sweep_records

UNTIL = dt.datetime(2010, 2, 24)


class TestDisabledIsInvisible:
    def test_record_json_has_no_telemetry_key(self):
        record = run_recorded(ExperimentConfig(seed=7), until=UNTIL)
        assert record.telemetry is None
        assert "telemetry" not in record.to_json_dict()
        assert '"telemetry"' not in record.canonical_json()

    def test_enabling_telemetry_does_not_perturb_the_run(self):
        plain = run_recorded(ExperimentConfig(seed=7), until=UNTIL)
        traced = run_recorded(ExperimentConfig(seed=7), until=UNTIL, telemetry=True)
        assert traced.telemetry is not None
        stripped = dataclasses.replace(traced, telemetry=None, elapsed_s=plain.elapsed_s)
        assert stripped == plain
        assert stripped.canonical_json() == plain.canonical_json()


class TestSerialParallelMergedCounts:
    def test_merged_metric_counts_identical(self):
        seeds = [7, 11]
        serial = sweep_records(seeds, until=UNTIL, jobs=1, telemetry=True)
        parallel = sweep_records(seeds, until=UNTIL, jobs=2, telemetry=True)
        merged_serial = serial.merged_telemetry()
        merged_parallel = parallel.merged_telemetry()
        # Hub equality excludes the per-span wall-time fields.
        assert merged_serial == merged_parallel
        # Per-record comparison also holds (hub eq ignores wall).
        assert serial.records == parallel.records
        assert [r.canonical_json() for r in serial.records] == [
            r.canonical_json() for r in parallel.records
        ]
        # One runner.run span per seed survives the merge.
        assert merged_serial.spans.counts()["runner.run"] == len(seeds)

    def test_merged_telemetry_none_without_telemetry(self):
        result = sweep_records([7], until=UNTIL, jobs=1)
        assert result.merged_telemetry() is None


class TestCacheSeparation:
    def test_telemetry_and_plain_runs_never_share_entries(self, tmp_path):
        cache = str(tmp_path / "runs")
        plain = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        traced = sweep_records(
            [7], until=UNTIL, jobs=1, cache_dir=cache, telemetry=True
        )
        assert plain.cache_misses == 1
        assert traced.cache_hits == 0 and traced.cache_misses == 1
        again = sweep_records(
            [7], until=UNTIL, jobs=1, cache_dir=cache, telemetry=True
        )
        assert again.cache_hits == 1
        assert again.records[0].telemetry is not None

    def test_cached_telemetry_round_trips(self, tmp_path):
        cache = str(tmp_path / "runs")
        first = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache, telemetry=True)
        second = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache, telemetry=True)
        assert second.records[0].telemetry == first.records[0].telemetry
        # The cache file itself is valid JSON with the telemetry payload.
        files = list((tmp_path / "runs").glob("*-telemetry.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["telemetry"] == first.records[0].telemetry.state_dict()
