"""Cache robustness: corrupt entries, tmp-file hygiene, key collisions."""

import dataclasses
import datetime as dt
import json
import os
import shutil

import pytest

from repro import ExperimentConfig
from repro.runner import sweep_records
from repro.runner.pool import (
    RUN_RECORD_CODEC,
    RunSpec,
    _cache_path,
    _horizon_token,
    _load_cached,
    _store_cached,
)

UNTIL = dt.datetime(2010, 2, 20)
DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def _seed_cache(tmp_path, seeds=(7,)):
    cache = str(tmp_path / "runs")
    result = sweep_records(list(seeds), until=UNTIL, jobs=1, cache_dir=cache)
    return cache, result


def _entry_path(cache):
    spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
    return _cache_path(cache, spec)


def _no_tmp_files(cache):
    assert [n for n in os.listdir(cache) if n.endswith(".tmp")] == []


class TestEviction:
    def test_truncated_json_is_quarantined_and_recomputed(self, tmp_path):
        cache, _ = _seed_cache(tmp_path)
        path = _entry_path(cache)
        content = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content[: len(content) // 2])
        again = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        assert (again.cache_hits, again.cache_misses) == (0, 1)
        assert again.cache_evictions == 1
        assert again.runner_telemetry.metrics.counter_value("runner.cache_evictions") == 1
        assert os.path.exists(path + ".corrupt")
        # The recomputed record replaced the poisoned entry for good.
        third = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        assert (third.cache_hits, third.cache_evictions) == (1, 0)
        _no_tmp_files(cache)

    def test_wrong_schema_is_evicted(self, tmp_path):
        cache, _ = _seed_cache(tmp_path)
        path = _entry_path(cache)
        data = json.load(open(path, encoding="utf-8"))
        data["schema"] = 999
        json.dump(data, open(path, "w", encoding="utf-8"))
        again = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        assert again.cache_evictions == 1
        assert not os.path.exists(path) or json.load(
            open(path, encoding="utf-8")
        )["schema"] != 999

    def test_seed_mismatch_is_evicted(self, tmp_path):
        cache, _ = _seed_cache(tmp_path)
        path = _entry_path(cache)
        data = json.load(open(path, encoding="utf-8"))
        data["seed"] = 99
        json.dump(data, open(path, "w", encoding="utf-8"))
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
        record, evicted = _load_cached(cache, spec, RUN_RECORD_CODEC)
        assert record is None
        assert evicted
        assert os.path.exists(path + ".corrupt")

    def test_digest_mismatch_is_evicted(self, tmp_path):
        cache, _ = _seed_cache(tmp_path)
        path = _entry_path(cache)
        data = json.load(open(path, encoding="utf-8"))
        data["config_digest"] = "0" * 64
        json.dump(data, open(path, "w", encoding="utf-8"))
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
        record, evicted = _load_cached(cache, spec, RUN_RECORD_CODEC)
        assert record is None
        assert evicted

    @pytest.mark.parametrize("part", ["metrics", "spans"])
    def test_list_valued_telemetry_is_quarantined(self, tmp_path, part):
        cache = str(tmp_path / "runs")
        sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache, telemetry=True)
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL, telemetry=True)
        path = _cache_path(cache, spec)
        data = json.load(open(path, encoding="utf-8"))
        data["telemetry"][part] = []
        json.dump(data, open(path, "w", encoding="utf-8"))
        again = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache, telemetry=True)
        assert (again.cache_hits, again.cache_misses) == (0, 1)
        assert again.cache_evictions == 1
        assert again.runner_telemetry.metrics.counter_value("runner.cache_evictions") == 1
        assert os.path.exists(path + ".corrupt")

    def test_missing_entry_is_not_an_eviction(self, tmp_path):
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
        record, evicted = _load_cached(str(tmp_path), spec, RUN_RECORD_CODEC)
        assert record is None
        assert not evicted


class TestStoreHygiene:
    def test_unserialisable_record_leaks_no_tmp_and_does_not_raise(self, tmp_path):
        cache, result = _seed_cache(tmp_path)
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
        # object() cannot be JSON-encoded: json.dump raises TypeError
        # halfway through writing the tmp file.
        bad = dataclasses.replace(
            result.records[0], fault_counts=(("boom", object()),)
        )
        assert _store_cached(cache, spec, bad, RUN_RECORD_CODEC) is False
        _no_tmp_files(cache)

    def test_store_failure_is_non_fatal_in_a_sweep(self, tmp_path, monkeypatch):
        import repro.runner.pool as pool

        cache = str(tmp_path / "runs")
        monkeypatch.setattr(
            pool.json, "dump", lambda *a, **k: (_ for _ in ()).throw(TypeError("x"))
        )
        result = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        assert len(result.records) == 1
        assert result.failures == ()
        assert result.runner_telemetry.metrics.counter_value("runner.cache_store_failures") == 1
        _no_tmp_files(cache)

    def test_successful_store_round_trips(self, tmp_path):
        cache, result = _seed_cache(tmp_path)
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL)
        record, evicted = _load_cached(cache, spec, RUN_RECORD_CODEC)
        assert record == result.records[0]
        assert not evicted
        _no_tmp_files(cache)


class TestKeyCollisions:
    def test_distinct_specs_never_share_a_cache_path(self):
        later = dt.datetime(2010, 4, 1)
        specs = [
            RunSpec(config=ExperimentConfig(seed=7)),
            RunSpec(config=ExperimentConfig(seed=8)),
            RunSpec(config=ExperimentConfig(seed=7), until=UNTIL),
            RunSpec(config=ExperimentConfig(seed=7), until=UNTIL, telemetry=True),
            RunSpec(config=ExperimentConfig(seed=7), telemetry=True),
            RunSpec(
                config=ExperimentConfig(seed=7).with_end(later), until=UNTIL
            ),
            RunSpec(config=ExperimentConfig(seed=7), until=dt.datetime(2010, 2, 21)),
        ]
        keys = [spec.cache_key() for spec in specs]
        assert len(set(keys)) == len(keys)


class TestTimezoneHorizons:
    def test_aware_horizons_normalise_to_utc(self):
        plus2 = dt.timezone(dt.timedelta(hours=2))
        in_plus2 = _horizon_token(dt.datetime(2010, 2, 24, 12, 0, tzinfo=plus2))
        in_utc = _horizon_token(
            dt.datetime(2010, 2, 24, 10, 0, tzinfo=dt.timezone.utc)
        )
        assert in_plus2 == in_utc == "20100224T100000Z"

    def test_equal_wall_time_different_offsets_do_not_collide(self):
        # The old strftime-only key dropped the offset, mapping both of
        # these to one cache entry.
        plus2 = dt.timezone(dt.timedelta(hours=2))
        a = _horizon_token(dt.datetime(2010, 2, 24, 12, 0, tzinfo=plus2))
        b = _horizon_token(dt.datetime(2010, 2, 24, 12, 0, tzinfo=dt.timezone.utc))
        assert a != b

    def test_naive_horizon_keeps_historical_key(self):
        assert _horizon_token(dt.datetime(2010, 2, 24)) == "20100224T000000"
        assert _horizon_token(None) == "full"

    def test_mixed_naive_aware_rejected_with_clear_error(self):
        aware = dt.datetime(2010, 2, 24, tzinfo=dt.timezone.utc)
        with pytest.raises(ValueError, match="mixed naive/aware"):
            RunSpec(config=ExperimentConfig(seed=7), until=aware)


class TestEarlierLayoutEntries:
    """Seed-7 entries written before records carried the Telemetry hub.

    The fixtures are cache files from that layout: the telemetry-free one
    is unchanged, the telemetry one stored ``span_counts``/``span_wall_s``
    tuples instead of ``Telemetry.state_dict()``.
    """

    def _install(self, tmp_path, fixture, telemetry):
        cache = str(tmp_path / "runs")
        os.makedirs(cache)
        spec = RunSpec(config=ExperimentConfig(seed=7), until=UNTIL, telemetry=telemetry)
        path = _cache_path(cache, spec)
        shutil.copyfile(os.path.join(DATA, fixture), path)
        return cache, path

    def test_telemetry_free_entry_is_still_a_hit(self, tmp_path):
        cache, path = self._install(tmp_path, "record_cache_v2_seed7.json", False)
        result = sweep_records([7], until=UNTIL, jobs=1, cache_dir=cache)
        assert (result.cache_hits, result.cache_misses) == (1, 0)
        assert result.cache_evictions == 0
        with open(path, encoding="utf-8") as fh:
            stored = fh.read()
        encoded = json.dumps(result.records[0].to_json_dict(), sort_keys=True)
        assert encoded == stored

    def test_telemetry_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache, path = self._install(
            tmp_path, "record_cache_v2_seed7_telemetry.json", True
        )
        result = sweep_records(
            [7], until=UNTIL, jobs=1, cache_dir=cache, telemetry=True
        )
        assert (result.cache_hits, result.cache_misses) == (0, 1)
        assert result.cache_evictions == 1
        assert result.runner_telemetry.metrics.counter_value("runner.cache_evictions") == 1
        assert os.path.exists(path + ".corrupt")
        assert result.records[0].telemetry.spans.counts()["runner.run"] == 1
        again = sweep_records(
            [7], until=UNTIL, jobs=1, cache_dir=cache, telemetry=True
        )
        assert (again.cache_hits, again.cache_evictions) == (1, 0)
        assert again.records == result.records
        _no_tmp_files(cache)
