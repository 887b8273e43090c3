"""Byte-identity of checkpointed and resumed campaigns.

The contract the whole state plane exists for: a campaign that flushes
checkpoints mid-flight, or is killed and resumed from any of them,
produces a run record byte-identical to the uninterrupted run.  Checked
for the default seed-7 configuration and for a degraded-mode
configuration with link faults, a confirmation-based health policy, and
telemetry enabled.
"""

import datetime as dt
import os

import pytest

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.monitoring.health import HealthPolicy
from repro.runner.policy import RetryPolicy
from repro.runner.records import record_from_results
from repro.sim.clock import DAY
from repro.state.checkpoint import read_checkpoint, write_checkpoint
from repro.state.protocol import StateError
from repro.telemetry import Telemetry


def _record_json(seed, results, until):
    return record_from_results(seed, results, until=until).canonical_json()


# ----------------------------------------------------------------------
# Default configuration, seed 7
# ----------------------------------------------------------------------
CONFIG = ExperimentConfig(seed=7)
UNTIL = CONFIG.prototype_end + dt.timedelta(days=24)
EVERY = 6 * DAY


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted seed-7 run over the test horizon."""
    campaign = CampaignBuilder(CONFIG).build()
    results = campaign.run(until=UNTIL)
    return _record_json(7, results, UNTIL)


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """The same run with periodic checkpoint flushes."""
    out = tmp_path_factory.mktemp("ck-seed7")
    campaign = CampaignBuilder(CONFIG).build()
    results = campaign.run(
        until=UNTIL, checkpoint_every=EVERY, checkpoint_dir=str(out)
    )
    return campaign.checkpoints_written, _record_json(7, results, UNTIL)


class TestSeedSevenIdentity:
    def test_checkpointing_does_not_perturb_the_run(self, baseline, checkpointed):
        _, record = checkpointed
        assert record == baseline

    def test_at_least_three_cut_points(self, checkpointed):
        paths, _ = checkpointed
        assert len(paths) >= 3

    def test_resume_from_every_cut_is_byte_identical(self, baseline, checkpointed):
        paths, _ = checkpointed
        for path in paths:
            campaign, results = Campaign.resume(path)
            assert _record_json(7, results, UNTIL) == baseline, path

    def test_resume_continues_the_checkpoint_grid(self, baseline, checkpointed, tmp_path):
        """A resumed run emits the later cuts an uninterrupted one would."""
        paths, _ = checkpointed
        campaign, results = Campaign.resume(
            paths[0], checkpoint_every=EVERY, checkpoint_dir=str(tmp_path)
        )
        assert _record_json(7, results, UNTIL) == baseline
        resumed_names = [os.path.basename(p) for p in campaign.checkpoints_written]
        original_names = [os.path.basename(p) for p in paths[1:]]
        assert resumed_names == original_names

    def test_resume_refuses_config_mismatch(self, checkpointed, tmp_path):
        paths, _ = checkpointed
        snapshot = read_checkpoint(paths[0])
        snapshot.config_digest = "0" * 40
        tampered = str(tmp_path / "tampered.json")
        assert write_checkpoint(tampered, snapshot)
        with pytest.raises(StateError, match="digest"):
            Campaign.resume(tampered)

    def test_resume_refuses_missing_checkpoint(self, tmp_path):
        with pytest.raises(StateError, match="no usable checkpoint"):
            Campaign.resume(str(tmp_path / "absent.json"))

    def test_checkpoint_refuses_extra_instruments(self):
        class Dummy:
            def attach(self, sim):
                return self

            def detach(self):
                pass

        campaign = (
            CampaignBuilder(CONFIG)
            .with_instrument("dummy", lambda c: Dummy())
            .build()
        )
        with pytest.raises(StateError, match="extra instruments"):
            campaign.checkpoint()


# ----------------------------------------------------------------------
# Degraded mode: link faults + health policy + telemetry, seed 11
# ----------------------------------------------------------------------
DEGRADED_SEED = 11
DEGRADED_UNTIL_DAYS = 30
DEGRADED_EVERY = 8 * DAY


def _degraded_builder():
    from repro.monitoring.transport import LinkFaultPlan

    config = ExperimentConfig(seed=DEGRADED_SEED)
    plan = LinkFaultPlan.parse(
        "storm:0.25:seed=3:attempts=2,5:12:partial:fraction=0.3"
    )
    policy = HealthPolicy(confirm_rounds=2, retry=RetryPolicy(max_attempts=2))
    builder = (
        CampaignBuilder(config)
        .with_link_faults(plan)
        .with_health_policy(policy)
        .with_telemetry(Telemetry())
    )
    return config, builder


@pytest.fixture(scope="module")
def degraded_until():
    config = ExperimentConfig(seed=DEGRADED_SEED)
    return config.prototype_end + dt.timedelta(days=DEGRADED_UNTIL_DAYS)


@pytest.fixture(scope="module")
def degraded_baseline(degraded_until):
    _, builder = _degraded_builder()
    campaign = builder.build()
    results = campaign.run(until=degraded_until)
    return (
        _record_json(DEGRADED_SEED, results, degraded_until),
        campaign.telemetry,
    )


@pytest.fixture(scope="module")
def degraded_checkpointed(degraded_until, tmp_path_factory):
    out = tmp_path_factory.mktemp("ck-degraded")
    _, builder = _degraded_builder()
    campaign = builder.build()
    results = campaign.run(
        until=degraded_until,
        checkpoint_every=DEGRADED_EVERY,
        checkpoint_dir=str(out),
    )
    record = _record_json(DEGRADED_SEED, results, degraded_until)
    return campaign.checkpoints_written, record


class TestDegradedModeIdentity:
    def test_checkpointing_does_not_perturb_the_run(
        self, degraded_baseline, degraded_checkpointed
    ):
        base_record, _ = degraded_baseline
        _, record = degraded_checkpointed
        assert record == base_record

    def test_resume_identical_under_faults(
        self, degraded_baseline, degraded_checkpointed, degraded_until
    ):
        base_record, base_telemetry = degraded_baseline
        paths, _ = degraded_checkpointed
        assert len(paths) >= 3
        for path in paths:
            resumed, res = Campaign.resume(path)
            record = _record_json(DEGRADED_SEED, res, degraded_until)
            assert record == base_record, path
            assert resumed.telemetry is not None
            assert resumed.telemetry == base_telemetry, path

    def test_checkpoint_meta_is_self_describing(self, degraded_checkpointed):
        """Resume needs no side channel: config and policies ride inside."""
        paths, _ = degraded_checkpointed
        snapshot = read_checkpoint(paths[0])
        assert snapshot.seed == DEGRADED_SEED
        assert snapshot.decode_meta("config") == ExperimentConfig(seed=DEGRADED_SEED)
        assert snapshot.decode_meta("link_faults") is not None
        assert snapshot.decode_meta("health_policy") is not None
        assert snapshot.meta["telemetry"] is True
