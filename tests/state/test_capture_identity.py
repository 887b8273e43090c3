"""Checkpoint capture is pinned byte for byte.

Every append-only history (instrument readings, the transfer ledger,
collection rounds, sensor histories, host logs, the bus recorder) is
encoded incrementally: a cut packs only the rows added since the last
one.  That must never show in the output.  A seed-7 campaign to
2010-03-20 with a 6-day cadence writes the cuts pinned in
``tests/data/seed7_checkpoint_cuts.sha256``: per cut, the SHA-256 of
the full payload and of the file the delta writer put on disk.  A
campaign restored from a cut and captured again gives the straight
run's payload at that cut.
"""

import datetime as dt
import gc
import hashlib
import json
import os

import pytest

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.hardware.sensors import SensorReading
from repro.monitoring.records import SensorRecord
from repro.monitoring.transport import TransferRecord
from repro.sim.clock import DAY
from repro.state.checkpoint import read_checkpoint

UNTIL = dt.datetime(2010, 3, 20)
EVERY = 6 * DAY
SHA_FILE = os.path.join(
    os.path.dirname(__file__), "..", "data", "seed7_checkpoint_cuts.sha256"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_sha(snapshot) -> str:
    """Digest of the payload exactly as ``write_checkpoint`` serialises it."""
    payload = snapshot.to_payload()
    return _sha(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def seed7_cuts(directory: str):
    """``(name, payload sha, file sha)`` per cut of the pinned run."""
    payloads = []
    campaign = CampaignBuilder(ExperimentConfig(seed=7)).build()
    campaign.run(
        until=UNTIL,
        checkpoint_every=EVERY,
        checkpoint_dir=directory,
        on_checkpoint=lambda path, snapshot: payloads.append(payload_sha(snapshot)),
    )
    cuts = []
    for path, digest in zip(campaign.checkpoints_written, payloads):
        with open(path, "r", encoding="utf-8") as fh:
            cuts.append((os.path.basename(path), digest, _sha(fh.read())))
    return cuts


def _pinned():
    with open(SHA_FILE) as fh:
        return [tuple(line.split()) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def cuts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ck-cuts")
    return directory, seed7_cuts(str(directory))


def test_cut_payloads_and_files_match_pinned_digests(cuts):
    _, got = cuts
    assert len(got) == 5
    assert [(digest, file_sha, name) for name, digest, file_sha in got] == _pinned()


def test_restored_campaign_recaptures_the_cut(cuts):
    directory, got = cuts
    for name, digest, _ in got:
        snapshot = read_checkpoint(str(directory / name))
        assert snapshot is not None, name
        assert payload_sha(snapshot) == digest, name
        restored = Campaign.restore(snapshot)
        assert payload_sha(restored.checkpoint()) == digest, name


def test_restore_builds_no_record_objects(cuts):
    """Restored histories stay typed columns: no per-sample row object
    exists until a reader asks for one."""
    directory, got = cuts
    snapshot = read_checkpoint(str(directory / got[-1][0]))
    restored = Campaign.restore(snapshot)
    assert len(restored.monitoring.sensor_records) > 0
    gc.collect()
    rows = (SensorReading, SensorRecord, TransferRecord)
    assert not [obj for obj in gc.get_objects() if isinstance(obj, rows)]
