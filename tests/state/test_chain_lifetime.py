"""Checkpoint chain state lives exactly as long as its chain.

A checkpointing run keeps, between cuts, the payload the delta writer
diffs against (its packed columns view the histories' own arrays) and
the capture memo that makes the next cut O(new data) (the encoded rows
of every encoded-rows history).  Both belong to the run's
:class:`~repro.state.checkpoint.DeltaCheckpointWriter`, so once
``run``/``continue_run`` returns the campaign reaches neither, and a
later ``checkpoint()`` encodes every history afresh to the same
payload.  A resumed campaign does not hold the checkpoint it was
restored from while it runs.
"""

import datetime as dt
import gc
import hashlib
import sys
import types

import numpy as np
import pytest

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.sim.clock import DAY
from repro.state.checkpoint import (
    CampaignCheckpoint,
    DeltaCheckpointWriter,
    serialise_payload,
)
from repro.state.codec import CaptureMemo, PackedColumn

CONFIG = ExperimentConfig(seed=7)
UNTIL = dt.datetime(2010, 3, 4)
EVERY = 3 * DAY


def _payload_sha(snapshot) -> str:
    return hashlib.sha256(serialise_payload(snapshot).encode("utf-8")).hexdigest()


def _memo_made(components):
    """The objects only a capture memo or a writer's base payload would
    hold: packed columns (and their views) and encoded history rows."""
    found = []

    def walk(node):
        if isinstance(node, PackedColumn):
            if len(node) >= 16:
                found.extend((node, node.array))
        elif isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(components)
    found.extend(components["recorder"])
    found.extend(components["monitoring"]["rounds"])
    for host in components["fleet"]["hosts"].values():
        found.extend(host["event_log"])
    return found


def _reachable(root):
    """Every object reachable from ``root``, not counting what modules,
    classes and module globals reach."""
    module_dicts = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
    seen = {id(root): root}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or id(ref) in module_dicts:
                continue
            if isinstance(ref, (type, types.ModuleType)):
                continue
            seen[id(ref)] = ref
            stack.append(ref)
    return seen


@pytest.fixture(scope="module")
def chained(tmp_path_factory):
    """A checkpointing run and the last snapshot its chain made."""
    directory = tmp_path_factory.mktemp("chain")
    snapshots = []
    campaign = CampaignBuilder(CONFIG).build()
    campaign.run(
        until=UNTIL,
        checkpoint_every=EVERY,
        checkpoint_dir=str(directory),
        on_checkpoint=lambda path, snapshot: snapshots.append(snapshot),
    )
    assert len(campaign.checkpoints_written) >= 3
    return campaign, snapshots[-1]


def test_finished_run_reaches_no_chain_state(chained):
    campaign, last = chained
    made = _memo_made(last.components)
    assert len(made) > 100
    reached = _reachable(campaign)
    assert not [obj for obj in made if id(obj) in reached]
    assert not [
        obj
        for obj in reached.values()
        if isinstance(obj, (DeltaCheckpointWriter, CaptureMemo, CampaignCheckpoint))
    ]


def test_checkpoint_after_the_run_matches_a_memo_capture(chained):
    """Without its memo a capture encodes every history whole, to the
    payload a capture inside a chain's memo gives at that instant."""
    campaign, _ = chained
    plain = campaign.checkpoint()
    twin = CampaignBuilder(CONFIG).build()
    end = twin.begin(until=UNTIL)
    memo = CaptureMemo()
    cut = twin.sim.now + EVERY
    while cut < end:
        twin.advance_to(cut)
        with memo:
            twin.checkpoint()
        cut += EVERY
    twin.advance_to(end)
    twin.finish()
    with memo:
        chained_capture = twin.checkpoint()
    assert _payload_sha(plain) == _payload_sha(chained_capture)
    # The memo did the work: an unchanged history's encoded rows are
    # reused, and a packed column is the store's own memory.
    with memo:
        again = twin.checkpoint()
    recorder = again.components["recorder"]
    assert recorder and all(
        a is b for a, b in zip(recorder, chained_capture.components["recorder"])
    )
    packed = again.components["monitoring"]["sensor_records"]["time"]
    assert np.shares_memory(
        packed.array,
        chained_capture.components["monitoring"]["sensor_records"]["time"].array,
    )


def test_resumed_run_holds_no_checkpoint_from_the_read(chained):
    campaign, _ = chained
    before = [obj for obj in gc.get_objects() if isinstance(obj, CampaignCheckpoint)]
    leaked = []

    def on_checkpoint(path, snapshot):
        gc.collect()
        leaked.extend(
            obj
            for obj in gc.get_objects()
            if isinstance(obj, CampaignCheckpoint)
            and obj is not snapshot
            and not any(obj is old for old in before)
        )

    resumed, _ = Campaign.resume(
        campaign.checkpoints_written[0],
        checkpoint_every=EVERY,
        on_checkpoint=on_checkpoint,
    )
    assert resumed.sim.now == resumed.clock.to_seconds(UNTIL)
    assert not leaked
