"""Checkpoints written when the fleet had a selectable backend still restore.

Older builds stored ``meta["fleet_backend"]`` (``"columnar"`` or
``"object"``) in every checkpoint.  The campaign now has one faithful
fleet path, so the reader ignores that key: a legacy checkpoint must
restore and finish byte-identical to the uninterrupted run, whichever
value it carries.  New checkpoints no longer write the key at all.
"""

import datetime as dt

import pytest

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.runner.records import record_from_results
from repro.sim.clock import DAY
from repro.state.checkpoint import read_checkpoint, write_checkpoint

CONFIG = ExperimentConfig(seed=7)
UNTIL = dt.datetime(2010, 2, 27, 12, 0)
EVERY = 2 * DAY


def _record_json(results):
    return record_from_results(7, results, until=UNTIL).canonical_json()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The uninterrupted record and the cut points of a checkpointed run."""
    straight = _record_json(CampaignBuilder(CONFIG).build().run(until=UNTIL))
    out = tmp_path_factory.mktemp("legacy-ck")
    campaign = CampaignBuilder(CONFIG).build()
    campaign.run(until=UNTIL, checkpoint_every=EVERY, checkpoint_dir=str(out))
    assert len(campaign.checkpoints_written) >= 2
    return straight, campaign.checkpoints_written


def test_new_checkpoints_carry_no_backend_field(runs):
    _, paths = runs
    for path in paths:
        assert "fleet_backend" not in read_checkpoint(path).meta, path


@pytest.mark.parametrize("legacy_backend", ["columnar", "object"])
def test_legacy_backend_field_is_ignored_on_restore(runs, legacy_backend, tmp_path):
    straight, paths = runs
    snapshot = read_checkpoint(paths[1])
    snapshot.meta["fleet_backend"] = legacy_backend
    legacy_path = str(tmp_path / "legacy.ckpt")
    assert write_checkpoint(legacy_path, snapshot)

    legacy = read_checkpoint(legacy_path)
    assert legacy.meta["fleet_backend"] == legacy_backend
    resumed = Campaign.restore(legacy)
    assert resumed.sim.now == snapshot.sim_time
    assert _record_json(resumed.continue_run()) == straight
