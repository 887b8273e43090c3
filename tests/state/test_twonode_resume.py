"""Kill-and-resume byte-identity on the two-node tent.

The faithful ``tent_model="two-node"`` campaign keeps its tent state in
a one-replica :class:`~repro.thermal.twonode.TwoNodeTentBank`.  A cut
taken mid-run must carry that state under the enclosure ``extra`` keys
older builds wrote, and a campaign restored from it must finish with
the record of the uninterrupted run.
"""

import datetime as dt

import numpy as np
import pytest

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.runner.records import record_from_results
from repro.sim.clock import DAY
from repro.state.checkpoint import read_checkpoint

CONFIG = ExperimentConfig(seed=7, tent_model="two-node")
UNTIL = dt.datetime(2010, 3, 6, 12, 0)
EXTRA_KEYS = {"air_temp_c", "mass_temp_c", "vapor_g_m3", "envelope"}


def _record_json(results):
    return record_from_results(7, results, until=UNTIL).canonical_json()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    straight = CampaignBuilder(CONFIG).build().run(until=UNTIL)
    out = tmp_path_factory.mktemp("ck-two-node")
    campaign = CampaignBuilder(CONFIG).build()
    campaign.run(until=UNTIL, checkpoint_every=4 * DAY, checkpoint_dir=str(out))
    return straight, campaign.checkpoints_written


def test_a_mid_run_cut_resumes_byte_identically(runs):
    straight, paths = runs
    assert len(paths) >= 3
    # The last cut (3 March) falls after the logger's arrival, so the
    # logged inside series below start right at the restore.
    snapshot = read_checkpoint(paths[-1])
    tent = snapshot.components["fleet"]["enclosures"]["tent"]
    assert set(tent["extra"]) == EXTRA_KEYS

    resumed = Campaign.restore(snapshot)
    assert resumed.fleet.tent.air_temp_c == tent["extra"]["air_temp_c"]
    results = resumed.continue_run()
    assert _record_json(results) == _record_json(straight)
    # The record summarises the logger; its raw series must match too.
    for series in ("inside_temperature_raw", "inside_humidity_raw"):
        got = getattr(results, series)()
        want = getattr(straight, series)()
        assert (want.times > snapshot.sim_time).any(), series
        assert np.array_equal(got.times, want.times), series
        assert np.array_equal(got.values, want.values), series
