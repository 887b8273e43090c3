"""The on-disk campaign checkpoint: envelope, checksum, crash-safe IO.

Layout
------
A checkpoint file is a small JSON envelope around one big payload
string::

    {"schema": 1, "checksum": sha256(payload), "payload": "<json>"}

A *delta* checkpoint (schema 2) stores, instead of the full payload, a
structural diff against a sibling file in the same directory::

    {"schema": 2, "checksum": sha256(payload),
     "payload": "<json of {base: <filename>, delta: <tree>}>"}

:func:`read_checkpoint` resolves the base chain transparently, so any
cut in a campaign's checkpoint directory loads like a full snapshot.
Most campaign state between two cuts is either unchanged (config,
topology, vendor tables) or append-only (series digests, fault logs,
packed column blobs), so a delta cut costs bytes proportional to the
*cadence interval* rather than the horizon -- this is what keeps
long-campaign checkpoint sizes flat instead of superlinear.
:class:`DeltaCheckpointWriter` drives the chain and rebases with a full
schema-1 cut every ``rebase_every`` writes to bound reassembly depth.

The payload is serialised exactly once; the checksum is computed over
that byte-for-byte string, so a torn or bit-flipped file can never load
as a subtly wrong campaign.  Inside the payload:

- ``schema``: checkpoint layout version (bump on incompatible change);
- ``config``: the full encoded :class:`ExperimentConfig` (a checkpoint
  is self-describing -- resume needs no side channel);
- ``config_digest``: the same digest the run-record cache keys on;
- ``sim_time`` / ``seed``: where and under which master seed the run
  stood;
- ``components``: one versioned state blob per snapshottable layer
  (engine, rng, clock, fleet, thermal, monitoring, policy, telemetry,
  ...), keyed by component name;
- ``meta``: builder options (disabled instruments, link-fault plan,
  health policy, telemetry flag) plus the campaign phase markers.

Crash safety
------------
Writes go through the same discipline as the runner's record cache
(``_store_cached``): serialise to a ``mkstemp`` sibling, atomically
rename over the target, and unlink the tmp file in a ``finally`` so it
never outlives the attempt.  Loads quarantine anything corrupt --
unparsable JSON, checksum mismatch, unknown schema -- to a ``.corrupt``
sibling and return ``None`` instead of raising, so a damaged checkpoint
degrades to a from-scratch run rather than a crashed sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.state.codec import CaptureMemo, decode_value, encode_value

#: Checkpoint layout version; readers reject (quarantine) other values.
CHECKPOINT_SCHEMA = 1

#: Envelope schema of a delta segment (diff against a sibling file).
DELTA_SCHEMA = 2

#: Hard bound on base-chain length during reassembly (a well-formed
#: writer rebases long before this; the guard breaks reference cycles).
_MAX_CHAIN_DEPTH = 128

_DELTA_KEY = "__delta__"


@dataclass
class CampaignCheckpoint:
    """Everything needed to rebuild a mid-flight campaign."""

    config_digest: str
    sim_time: float
    seed: int
    components: Dict[str, Dict[str, Any]]
    meta: Dict[str, Any] = field(default_factory=dict)
    schema: int = CHECKPOINT_SCHEMA

    def to_payload(self) -> Dict[str, Any]:
        """The plain-data payload the envelope carries."""
        return {
            "schema": self.schema,
            "config_digest": self.config_digest,
            "sim_time": self.sim_time,
            "seed": self.seed,
            "components": self.components,
            "meta": self.meta,
        }

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "CampaignCheckpoint":
        return cls(
            schema=int(data["schema"]),
            config_digest=str(data["config_digest"]),
            sim_time=float(data["sim_time"]),
            seed=int(data["seed"]),
            components=dict(data["components"]),
            meta=dict(data.get("meta", {})),
        )

    # Convenience wrappers over the tagged-value codec, so callers do
    # not deal in encoded blobs directly.
    def encode_meta(self, key: str, value: Any) -> None:
        """Store a config-like value (dataclasses/enums allowed) in meta."""
        self.meta[key] = encode_value(value)

    def decode_meta(self, key: str, default: Any = None) -> Any:
        if key not in self.meta:
            return default
        return decode_value(self.meta[key])


def _common_prefix_len(old: str, new: str) -> int:
    """Length of the shared prefix, scanned in slices (fast on MB blobs)."""
    limit = min(len(old), len(new))
    lo = 0
    chunk = 1 << 16
    while lo < limit and old[lo : lo + chunk] == new[lo : lo + chunk]:
        lo += chunk
    if lo >= limit:
        return limit
    # Mismatch inside the last chunk: binary-refine instead of a
    # per-character scan (these blobs run to megabytes).
    while chunk > 1:
        chunk >>= 1
        if lo < limit and old[lo : lo + chunk] == new[lo : lo + chunk]:
            lo += chunk
    return min(lo, limit)


def _diff(old: Any, new: Any) -> Optional[Dict[str, Any]]:
    """Structural delta turning ``old`` into ``new``; ``None`` if equal.

    Dicts diff per key, lists and strings keep their common prefix and
    replace the tail (the append-only shapes campaign state is made
    of), everything else is replaced whole.  Payloads never contain the
    ``__delta__`` sentinel key, so the encoding is unambiguous.
    """
    if old is new:
        return None
    if isinstance(old, dict) and isinstance(new, dict):
        sets: Dict[str, Any] = {}
        for key, value in new.items():
            if key in old:
                delta = _diff(old[key], value)
                if delta is not None:
                    sets[key] = delta
            else:
                sets[key] = {_DELTA_KEY: "full", "value": value}
        drops = [key for key in old if key not in new]
        if not sets and not drops:
            return None
        return {_DELTA_KEY: "dict", "set": sets, "drop": drops}
    if isinstance(old, list) and isinstance(new, list):
        limit = min(len(old), len(new))
        keep = 0
        while keep < limit and old[keep] == new[keep]:
            keep += 1
        if keep == len(old) == len(new):
            return None
        if keep:
            return {_DELTA_KEY: "tail", "keep": keep, "tail": new[keep:]}
        return {_DELTA_KEY: "full", "value": new}
    if isinstance(old, str) and isinstance(new, str):
        keep = _common_prefix_len(old, new)
        if keep == len(old) == len(new):
            return None
        if keep >= 32:
            return {_DELTA_KEY: "strtail", "keep": keep, "tail": new[keep:]}
        return {_DELTA_KEY: "full", "value": new}
    if old == new:
        return None
    return {_DELTA_KEY: "full", "value": new}


def _apply(old: Any, delta: Dict[str, Any]) -> Any:
    """Inverse of :func:`_diff`: turn ``old`` into the new value.

    Dict and list nodes update ``old`` in place, so the caller must own
    it (the reader applies onto the tree it parsed); a string node builds
    a new string.  Raises :class:`ValueError` on a node that does not fit
    its base: a kind that does not match the base's type, a ``keep``
    outside ``[0, len(base)]``, or a tail of another type than the base.
    ``old`` may then be partly updated and must be discarded.
    """
    kind = delta[_DELTA_KEY]
    if kind == "full":
        return delta["value"]
    if kind == "dict":
        sets, drops = delta["set"], delta["drop"]
        if not (
            isinstance(old, dict) and isinstance(sets, dict) and isinstance(drops, list)
        ):
            raise ValueError("dict delta node does not fit its base")
        for key in drops:
            old.pop(key, None)
        for key, sub in sets.items():
            old[key] = _apply(old.get(key), sub)
        return old
    if kind in ("tail", "strtail"):
        base_type = list if kind == "tail" else str
        keep, tail = delta["keep"], delta["tail"]
        if not (isinstance(old, base_type) and isinstance(tail, base_type)):
            raise ValueError(f"{kind} delta node does not fit its base")
        if type(keep) is not int or not 0 <= keep <= len(old):
            raise ValueError(f"{kind} delta keeps {keep!r} of {len(old)} items")
        if kind == "strtail":
            return old[:keep] + tail
        del old[keep:]
        old += tail
        return old
    raise ValueError(f"unknown delta node kind {kind!r}")


def _quarantine(path: str) -> None:
    """Move a poisoned checkpoint aside so it is never re-parsed."""
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass


def write_checkpoint(path: str, checkpoint: CampaignCheckpoint) -> bool:
    """Atomically write ``checkpoint`` to ``path``; True when stored.

    Best-effort like the record cache: a full disk must not abort the
    run the checkpoint was meant to protect.  The tmp file never
    outlives the call.
    """
    try:
        payload = json.dumps(
            checkpoint.to_payload(), sort_keys=True, separators=(",", ":")
        )
    except (TypeError, ValueError):
        return False
    return _write_envelope(path, checkpoint.schema, payload)


def _write_envelope(path: str, schema: int, payload: str) -> bool:
    """Atomic, best-effort write of one checksummed envelope."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path: Optional[str] = None
    try:
        os.makedirs(directory, exist_ok=True)
        envelope = {
            "schema": schema,
            "checksum": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            "payload": payload,
        }
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(envelope, fh)
        os.replace(tmp_path, path)
        tmp_path = None
        return True
    except (OSError, TypeError, ValueError):
        return False
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


class DeltaCheckpointWriter:
    """Emit a chain of checkpoint cuts with delta compression.

    The first cut (and every ``rebase_every``-th thereafter) is a full
    schema-1 file; cuts in between are schema-2 deltas against the
    previous cut in the same directory.  A failed write leaves the
    chain base untouched, so the next cut simply diffs across the gap.

    One writer instance belongs to one campaign run: the chain threads
    through the files *that run* wrote, and a resumed campaign starts a
    fresh writer (its first cut is full, so old segments may be pruned
    once a new full cut lands).  The writer holds everything the chain
    keeps between cuts: the previous payload it diffs against and
    :attr:`memo`, the :class:`~repro.state.codec.CaptureMemo` the
    chain's captures run in (they share most of their strings), so
    dropping the writer frees the chain.
    """

    def __init__(self, rebase_every: int = 16) -> None:
        if rebase_every < 0:
            raise ValueError("rebase_every cannot be negative")
        self.rebase_every = int(rebase_every)
        self._base_payload: Optional[Dict[str, Any]] = None
        self._base_name: Optional[str] = None
        self._base_dir: Optional[str] = None
        self._chain_len = 0
        self.memo = CaptureMemo()

    def write(self, path: str, checkpoint: CampaignCheckpoint) -> bool:
        """Write ``checkpoint`` to ``path`` as a full or delta cut."""
        payload = checkpoint.to_payload()
        directory = os.path.dirname(os.path.abspath(path))
        delta_ok = (
            self._base_payload is not None
            and self._base_dir == directory
            and (self.rebase_every == 0 or self._chain_len + 1 < self.rebase_every)
        )
        if delta_ok:
            delta = _diff(self._base_payload, payload)
            if delta is None:
                delta = {_DELTA_KEY: "dict", "set": {}, "drop": []}
            try:
                body = json.dumps(
                    {"base": self._base_name, "delta": delta},
                    sort_keys=True,
                    separators=(",", ":"),
                )
            except (TypeError, ValueError):
                return False
            stored = _write_envelope(path, DELTA_SCHEMA, body)
            if stored:
                self._chain_len += 1
        else:
            stored = write_checkpoint(path, checkpoint)
            if stored:
                self._chain_len = 0
        if stored:
            self._base_payload = payload
            self._base_name = os.path.basename(path)
            self._base_dir = directory
        return stored


def read_checkpoint(path: str) -> Optional[CampaignCheckpoint]:
    """Load and verify a checkpoint; ``None`` when unusable.

    A file that exists but fails JSON parsing, checksum verification,
    or schema validation is quarantined to a ``.corrupt`` sibling; a
    merely unreadable file (I/O error) is left in place.  Either way
    the caller sees ``None`` and falls back to a from-scratch run.
    """
    payload = _read_payload(path)
    if payload is None:
        return None
    try:
        checkpoint = CampaignCheckpoint.from_payload(payload)
        if checkpoint.schema != CHECKPOINT_SCHEMA:
            raise ValueError(f"unknown checkpoint schema {checkpoint.schema}")
    except (KeyError, TypeError, ValueError):
        _quarantine(path)
        return None
    return checkpoint


def _read_payload(path: str) -> Optional[Dict[str, Any]]:
    """Resolve the delta chain ending at ``path`` to a full payload.

    One pass: walk leaf to base keeping only each delta, then apply the
    deltas base to leaf onto the base's tree, dropping each once
    applied, so the reader holds one tree and the deltas still to come.
    A corrupt file is quarantined at its own level; a delta whose base
    is missing or unusable returns ``None`` (the delta file itself is
    intact and may become loadable if the base reappears), and so does a
    chain longer than ``_MAX_CHAIN_DEPTH`` deltas (a cycle).  A delta
    that does not fit its base is quarantined and the partly updated
    tree is discarded.
    """
    deltas: List[Tuple[str, Dict[str, Any]]] = []
    for depth in range(_MAX_CHAIN_DEPTH, -1, -1):
        node = _read_node(path)
        if node is None:
            return None
        base_path, body = node
        if base_path is None:
            break
        if depth == 0:
            return None
        deltas.append((path, body))
        path = base_path
    tree = body
    while deltas:
        path, delta = deltas.pop()
        try:
            tree = _apply(tree, delta)
        except (KeyError, TypeError, ValueError):
            _quarantine(path)
            return None
    return tree


def _read_node(path: str) -> Optional[Tuple[Optional[str], Any]]:
    """One verified envelope: ``(None, payload)`` for a full cut,
    ``(base path, delta)`` for a delta cut, ``None`` when unusable.

    The envelope and its payload string are dropped on return; only the
    parsed body stays.  A corrupt file is quarantined.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            envelope = json.load(fh)
    except OSError:
        return None
    except ValueError:
        _quarantine(path)
        return None
    try:
        payload_str = envelope["payload"]
        schema = envelope.get("schema")
        if not isinstance(payload_str, str):
            raise ValueError("payload is not a string")
        actual = hashlib.sha256(payload_str.encode("utf-8")).hexdigest()
        if actual != envelope["checksum"]:
            raise ValueError("checksum mismatch")
        body = json.loads(payload_str)
        if schema == CHECKPOINT_SCHEMA:
            return None, body
        if schema != DELTA_SCHEMA:
            raise ValueError(f"unknown envelope schema {schema!r}")
        base_name = body["base"]
        delta = body["delta"]
        if not isinstance(base_name, str) or os.path.sep in base_name:
            raise ValueError("delta base must be a sibling filename")
    except (KeyError, TypeError, ValueError):
        _quarantine(path)
        return None
    return os.path.join(os.path.dirname(os.path.abspath(path)), base_name), delta
