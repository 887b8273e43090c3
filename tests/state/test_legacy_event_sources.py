"""Checkpoints from before the samplers and archivers left the event heap.

Such a checkpoint keeps the Lascar logger's and the weather station's
next sample as ``lascar.sample`` / ``station.observe`` periodic tasks,
and each archiver's next phase change as a pending
``archiver.step.<id>`` event.  It must restore and finish byte-identical
to the uninterrupted run.

``tests/data/event_sources_v1_cut.json`` holds the slice of such a
checkpoint that differs from one written now, taken by the earlier
build at the 2010-02-21 10:00 cut of the run below: the whole engine
blob, the version-1 ``lascar`` and ``station`` blobs without their
readings (identical to today's), the version-1 archiver blobs, and the
periodic-task ids the other components held.  The test splices it into
today's checkpoint of the same cut.  The cut falls before the logger's
arrival, so the resumed run also takes the logger's first sample, which
ties with a fleet tick and was queued before it.
"""

import datetime as dt
import json
import os

import pytest

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.core.legacy import upgrade_event_sources
from repro.runner.records import record_from_results
from repro.sim.clock import DAY
from repro.state.checkpoint import read_checkpoint, write_checkpoint
from repro.state.protocol import StateError

CONFIG = ExperimentConfig(seed=7)
UNTIL = dt.datetime(2010, 3, 6)
EVERY = 2 * DAY
FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "data", "event_sources_v1_cut.json"
)


def _record_json(results):
    return record_from_results(7, results, until=UNTIL).canonical_json()


@pytest.fixture(scope="module")
def legacy():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs(tmp_path_factory, legacy):
    """The uninterrupted record and today's checkpoint at the fixture's cut."""
    straight = _record_json(CampaignBuilder(CONFIG).build().run(until=UNTIL))
    out = tmp_path_factory.mktemp("legacy-sources")
    campaign = CampaignBuilder(CONFIG).build()
    campaign.run(until=UNTIL, checkpoint_every=EVERY, checkpoint_dir=str(out))
    cut_time = legacy["engine"]["now"]
    [cut] = [
        path
        for path in campaign.checkpoints_written
        if read_checkpoint(path).sim_time == cut_time
    ]
    return straight, cut


def _spliced(cut, legacy, tmp_path):
    snapshot = read_checkpoint(cut)
    components = snapshot.components
    components["engine"] = legacy["engine"]
    for name in ("lascar", "station"):
        readings = components[name]["readings"]
        components[name] = dict(legacy[name], readings=readings)
    components["fleet"]["archivers"] = legacy["archivers"]
    components["fleet"]["tick_task_id"] = legacy["task_ids"]["fleet"]
    for name in ("powermeter", "webcam", "monitoring"):
        components[name]["task_id"] = legacy["task_ids"][name]
    path = str(tmp_path / "legacy.ckpt")
    assert write_checkpoint(path, snapshot)
    return read_checkpoint(path)


def test_fixture_is_a_legacy_cut(legacy):
    keys = {entry["key"] for entry in legacy["engine"]["queue"]}
    assert any(key.startswith("archiver.step.") for key in keys)
    periodic = {task["key"] for task in legacy["engine"]["periodic"].values()}
    assert {"lascar.sample", "station.observe"} <= periodic
    assert legacy["lascar"]["version"] == legacy["station"]["version"] == 1
    assert {blob["version"] for blob in legacy["archivers"].values()} == {1}


def test_legacy_cut_resumes_byte_identical(runs, legacy, tmp_path):
    straight, cut = runs
    resumed = Campaign.restore(_spliced(cut, legacy, tmp_path))
    engine = resumed.sim.state_dict()
    assert not any(
        (entry["key"] or "").startswith("archiver.step.") for entry in engine["queue"]
    )
    assert not {"lascar.sample", "station.observe"} & {
        task["key"] for task in engine["periodic"].values()
    }
    assert len(resumed.fleet.archivers) == len(legacy["archivers"])
    results = resumed.continue_run()
    assert resumed.lascar.times()[0] == resumed.lascar.arrival_time
    assert _record_json(results) == straight


def test_upgrade_keeps_each_event_position(legacy):
    """Every converted step keeps its event's time and ``seq``, so it runs
    where that event would have fired."""
    engine = legacy["engine"]
    queue = engine["queue"]
    task = {task["key"]: int(tid) for tid, task in engine["periodic"].items()}
    [sample] = [
        e for e in queue
        if e["key"] == "engine.periodic" and e["args"] == [task["lascar.sample"]]
    ]
    [observe] = [
        e for e in queue
        if e["key"] == "engine.periodic" and e["args"] == [task["station.observe"]]
    ]
    steps = {
        e["key"].rsplit(".", 1)[1]: e for e in queue if e["key"].startswith("archiver.")
    }
    components = {
        "engine": engine,
        "lascar": dict(legacy["lascar"], readings={}),
        "station": dict(legacy["station"], readings={}),
        "fleet": {"archivers": legacy["archivers"]},
    }
    upgraded = upgrade_event_sources(components)
    assert upgraded["lascar"]["next"] == [sample["time"], sample["seq"], 0]
    assert upgraded["station"]["next"] == observe["time"]
    archivers = upgraded["fleet"]["archivers"]
    assert set(archivers) == set(steps)
    for host_id, step in steps.items():
        assert archivers[host_id]["next"] == [step["time"], step["seq"], 0]
        assert archivers[host_id]["version"] == 2
    left = upgraded["engine"]
    assert len(left["queue"]) == len(queue) - 2 - len(steps)
    assert {t["key"] for t in left["periodic"].values()} == set(task) - {
        "lascar.sample",
        "station.observe",
    }
    assert components["engine"] is engine and engine["queue"] is queue


def test_current_components_pass_through(runs):
    _, cut = runs
    components = read_checkpoint(cut).components
    assert upgrade_event_sources(components) is components


def test_malformed_legacy_engine_raises(runs, legacy, tmp_path):
    _, cut = runs
    snapshot = _spliced(cut, legacy, tmp_path)
    del snapshot.components["engine"]["periodic"]
    with pytest.raises(StateError):
        Campaign.restore(snapshot)
