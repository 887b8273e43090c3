"""Explicit, versioned state: the checkpoint/restore plane.

Every stateful layer of the reproduction -- engine, RNG streams, clock,
hardware, thermal, monitoring, operator protocol, telemetry -- exposes
its mutable state through one uniform protocol:

- ``state_dict() -> dict``: a versioned, JSON-serialisable, picklable
  snapshot of everything that changes during a run;
- ``load_state_dict(d)``: restore a freshly *constructed* component to
  exactly that state.

The contract is restore-by-reconstruction: a checkpoint never pickles
live object graphs.  Restoring builds the campaign again from its
config (construction is deterministic), loads each component's state
dict, and finally overwrites every RNG stream position -- so a resumed
run continues the exact draw sequence of the run it replaces and its
census, sensor records, and telemetry counters are byte-identical to an
uninterrupted run at any cut point.

:class:`~repro.state.checkpoint.CampaignCheckpoint` is the on-disk
container (schema version, config digest, sim time, per-component
blobs, integrity checksum); :mod:`repro.state.codec` holds the column
stores and packing helpers that keep big histories cheap to hold and write.
"""

from repro.state.checkpoint import (
    CHECKPOINT_SCHEMA,
    CampaignCheckpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.state.protocol import Snapshottable, StateError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CampaignCheckpoint",
    "Snapshottable",
    "StateError",
    "read_checkpoint",
    "write_checkpoint",
]
