"""Preemption-tolerant resumable sweeps.

A resumable sweep flushes campaign checkpoints as each attempt runs, so
a retried attempt restarts from the dead attempt's last flush instead of
simulated ``t=0`` -- and still produces records byte-identical to a
fault-free sweep.  Deaths are injected deterministically through the
deferred-``DIE`` seam (``Fault.after_checkpoints``).
"""

import datetime as dt
import os

import pytest

from repro.runner import (
    Fault,
    FaultAction,
    FaultPlan,
    RetryPolicy,
    run_recorded,
    sweep_records,
)
from repro.runner.local import newest_checkpoint
from repro.sim.clock import DAY
from repro.state.checkpoint import CampaignCheckpoint, write_checkpoint

UNTIL = dt.datetime(2010, 2, 20)
EVERY = 2 * DAY  # three flushes before the Feb 20 horizon
FAST = dict(backoff_base_s=0.01, backoff_max_s=0.05)


def _canonical(result):
    return [record.canonical_json() for record in result.records]


class TestSerialResume:
    def test_death_after_checkpoint_resumes_byte_identical(self, tmp_path):
        baseline = sweep_records([7], until=UNTIL, jobs=1)
        plan = FaultPlan.of(
            Fault(
                seed=7, attempt=1, action=FaultAction.DIE, after_checkpoints=2
            )
        )
        result = sweep_records(
            [7], until=UNTIL, jobs=1,
            cache_dir=str(tmp_path),
            policy=RetryPolicy(max_attempts=2, **FAST),
            faults=plan,
            resumable=True,
            checkpoint_every_s=EVERY,
        )
        assert result.ok
        assert result.retries == 1
        assert result.checkpoint_resumes == 1
        assert _canonical(result) == _canonical(baseline)

    def test_resumed_retry_reads_the_chain_once(self, tmp_path, monkeypatch):
        # Every chain read resolves through ``_read_payload``; a resumed
        # retry must not read its cut once to check it and again to
        # restore it.
        import repro.state.checkpoint as checkpoint_module

        reads = []
        resolve = checkpoint_module._read_payload

        def counted(path):
            reads.append(os.path.basename(path))
            return resolve(path)

        monkeypatch.setattr(checkpoint_module, "_read_payload", counted)
        plan = FaultPlan.of(
            Fault(
                seed=7, attempt=1, action=FaultAction.DIE, after_checkpoints=2
            )
        )
        result = sweep_records(
            [7], until=UNTIL, jobs=1,
            cache_dir=str(tmp_path),
            policy=RetryPolicy(max_attempts=2, **FAST),
            faults=plan,
            resumable=True,
            checkpoint_every_s=EVERY,
        )
        assert result.ok
        assert result.checkpoint_resumes == 1
        assert len(reads) == 1

    def test_resume_counter_reaches_runner_telemetry(self, tmp_path):
        plan = FaultPlan.of(
            Fault(
                seed=7, attempt=1, action=FaultAction.DIE, after_checkpoints=1
            )
        )
        result = sweep_records(
            [7], until=UNTIL, jobs=1,
            cache_dir=str(tmp_path),
            policy=RetryPolicy(max_attempts=2, **FAST),
            faults=plan,
            resumable=True,
            checkpoint_every_s=EVERY,
        )
        assert result.ok
        snapshot = result.runner_telemetry
        assert snapshot is not None
        assert snapshot.counter("runner.checkpoint_resumes") == 1

    def test_checkpoints_cleaned_up_after_success(self, tmp_path):
        result = sweep_records(
            [7], until=UNTIL, jobs=1,
            cache_dir=str(tmp_path),
            resumable=True,
            checkpoint_every_s=EVERY,
        )
        assert result.ok
        checkpoint_root = tmp_path / "checkpoints"
        leftovers = (
            os.listdir(checkpoint_root) if checkpoint_root.is_dir() else []
        )
        assert leftovers == []

    def test_faultless_resumable_sweep_matches_plain(self, tmp_path):
        baseline = sweep_records([7], until=UNTIL, jobs=1)
        result = sweep_records(
            [7], until=UNTIL, jobs=1,
            cache_dir=str(tmp_path),
            resumable=True,
            checkpoint_every_s=EVERY,
        )
        assert result.checkpoint_resumes == 0
        assert _canonical(result) == _canonical(baseline)


class TestPooledResume:
    def test_worker_death_resumes_in_pool_byte_identical(self, tmp_path):
        # The acceptance scenario on a real pool: a worker hard-exits
        # right after its second flush, the executor is rebuilt, and the
        # retry resumes mid-campaign.  The broken pool may also kill the
        # innocent sibling spec, which then resumes from its own flushes
        # -- hence >= on the counters.
        baseline = sweep_records([7, 11], until=UNTIL, jobs=2)
        plan = FaultPlan.of(
            Fault(
                seed=11, attempt=1, action=FaultAction.DIE, after_checkpoints=2
            )
        )
        result = sweep_records(
            [7, 11], until=UNTIL, jobs=2,
            cache_dir=str(tmp_path),
            policy=RetryPolicy(max_attempts=3, **FAST),
            faults=plan,
            resumable=True,
            checkpoint_every_s=EVERY,
        )
        assert result.ok
        assert result.retries >= 1
        assert result.checkpoint_resumes >= 1
        assert [r.seed for r in result.records] == [7, 11]
        assert _canonical(result) == _canonical(baseline)


class TestFallbacks:
    def test_missing_resume_checkpoint_falls_back_to_scratch(self):
        from repro.core.config import ExperimentConfig

        config = ExperimentConfig(seed=7)
        baseline = run_recorded(config, until=UNTIL)
        record = run_recorded(
            config, until=UNTIL, resume_from="/nonexistent/checkpoint.json"
        )
        assert record.canonical_json() == baseline.canonical_json()

    def test_latest_checkpoint_skips_corrupt_newest(self, tmp_path):
        older = str(tmp_path / "checkpoint_000000000100.json")
        newer = str(tmp_path / "checkpoint_000000000200.json")
        snapshot = CampaignCheckpoint(
            config_digest="d", sim_time=100.0, seed=7, components={}
        )
        assert write_checkpoint(older, snapshot)
        with open(newer, "w") as fh:
            fh.write("torn mid-write")
        assert newest_checkpoint(str(tmp_path)).sim_time == 100.0
        # The poisoned file was quarantined, not retried forever.
        assert os.path.exists(newer + ".corrupt")

    def test_latest_checkpoint_empty_or_missing_dir(self, tmp_path):
        assert newest_checkpoint(None) is None
        assert newest_checkpoint(str(tmp_path / "absent")) is None
        assert newest_checkpoint(str(tmp_path)) is None


class TestValidation:
    def test_resumable_needs_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            sweep_records([7], until=UNTIL, jobs=1, resumable=True)

    def test_checkpoint_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            sweep_records(
                [7], until=UNTIL, jobs=1,
                cache_dir=str(tmp_path),
                resumable=True,
                checkpoint_every_s=0.0,
            )

    def test_deferred_death_only_defers_die(self):
        with pytest.raises(ValueError, match="DIE"):
            Fault(
                seed=7, attempt=1, action=FaultAction.RAISE, after_checkpoints=1
            )

    def test_deferred_death_cannot_be_negative(self):
        with pytest.raises(ValueError):
            Fault(
                seed=7, attempt=1, action=FaultAction.DIE, after_checkpoints=-1
            )
