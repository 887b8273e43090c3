"""The order of bus events in the JSONL run log is pinned.

The seed-7 record digest pins *what* happened; this digest pins the
order it was published in.  Every producer that settles work lazily
(the archivers' cycles, the samplers' batches) must publish in the
engine's ``(time, seq)`` order, so the run log of a seed-7 campaign to
2010-03-06 stays byte-identical to ``tests/data/seed7_runlog.sha256``.
"""

import datetime as dt
import hashlib
import io
import json
import os

from repro.core.builder import CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.telemetry.runlog import JsonlRunLog

UNTIL = dt.datetime(2010, 3, 6)
SHA_FILE = os.path.join(os.path.dirname(__file__), "..", "data", "seed7_runlog.sha256")


def seed7_runlog() -> str:
    stream = io.StringIO()
    log = JsonlRunLog(stream, wall_clock=lambda: 0.0)
    campaign = (
        CampaignBuilder(ExperimentConfig(seed=7)).with_subscriber(log.subscribe).build()
    )
    campaign.run(until=UNTIL)
    log.close()
    return stream.getvalue()


def test_seed7_runlog_matches_pinned_digest():
    text = seed7_runlog()
    events = [json.loads(line)["event"] for line in text.splitlines()]
    # The window holds wrong hashes, so the order of cycle outcomes
    # relative to installs, collection rounds and switch deaths is under
    # test.
    assert events.count("WrongHash") == 4
    times = [json.loads(line)["sim_time_s"] for line in text.splitlines()]
    assert times == sorted(times)
    with open(SHA_FILE) as fh:
        pinned = fh.read().split()[0]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned
