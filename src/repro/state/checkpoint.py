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
packed columns), so a delta cut costs bytes proportional to the
*cadence interval* rather than the horizon -- this is what keeps
long-campaign checkpoint sizes flat instead of superlinear.
:class:`DeltaCheckpointWriter` drives the chain and rebases with a full
schema-1 cut every ``rebase_every`` writes to bound reassembly depth.

Packed columns
--------------
In memory a payload holds each history column as a
:class:`~repro.state.codec.PackedColumn`, a read-only array; in the file
it is a blob ``{"__packed__": dtype, "n": rows, "data": base64}``, and
only serialising a cut writes that text.  A delta stores a changed
column as today's string diff of its ``data`` (a ``strtail`` node: keep
the first ``keep`` characters, append ``tail``), which the writer builds
from the arrays: base64 turns every three rows into whole characters,
so the two strings agree up to the last whole three-row quantum before
the first row whose bytes differ, and only the rows from there on are
encoded.  The reader decodes each blob, and each delta's tail, to
bytes as it parses the file, applies every ``strtail`` onto those bytes
and joins each column into an array once, after the last delta; a
restore adopts that array.  No full-length string is built on either
side.

The payload is serialised exactly once, by :func:`serialise_payload`
for a full cut; the checksum is computed over that byte-for-byte
string, so a torn or bit-flipped file can never load as a subtly wrong
campaign.  Inside the payload:

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
unparsable JSON, checksum mismatch, unknown schema, a delta that does
not fit its base -- to a ``.corrupt`` sibling and return ``None``
instead of raising, so a damaged checkpoint degrades to a from-scratch
run rather than a crashed sweep.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.state.codec import (
    PACKED_DTYPES,
    CaptureMemo,
    PackedColumn,
    b64,
    decode_value,
    encode_value,
    first_difference,
)

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


def _packed_blob(value: Any) -> Dict[str, Any]:
    if isinstance(value, PackedColumn):
        return value.blob()
    raise TypeError(f"cannot serialise {type(value).__name__} into a checkpoint")


def _dumps(value: Any) -> str:
    """``value`` as checkpoint JSON: sorted keys, no spaces, and each
    :class:`~repro.state.codec.PackedColumn` as its blob."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_packed_blob)


def serialise_payload(checkpoint: CampaignCheckpoint) -> str:
    """The payload string a full cut of ``checkpoint`` stores; the file's
    checksum is its SHA-256."""
    return _dumps(checkpoint.to_payload())


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
    if isinstance(old, PackedColumn) and isinstance(new, PackedColumn):
        return _diff_columns(old, new)
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


def _diff_columns(old: PackedColumn, new: PackedColumn) -> Optional[Dict[str, Any]]:
    """The node :func:`_diff` gives for the blobs two columns write,
    built without either blob's full ``data`` string."""
    sets: Dict[str, Any] = {}
    if old.dtype == new.dtype:
        data = _diff_data(old.array, new.array)
    else:
        sets["__packed__"] = {_DELTA_KEY: "full", "value": new.dtype}
        data = _diff(old.blob()["data"], new.blob()["data"])
    if data is not None:
        sets["data"] = data
    if len(old) != len(new):
        sets["n"] = {_DELTA_KEY: "full", "value": len(new)}
    if not sets:
        return None
    return {_DELTA_KEY: "dict", "set": sets, "drop": []}


def _diff_data(old: np.ndarray, new: np.ndarray) -> Optional[Dict[str, Any]]:
    """The string node turning ``old``'s base64 text into ``new``'s.

    Three rows of any dtype are whole base64 quanta, so the two texts
    agree on every three-row group before the one holding the first row
    whose bytes differ, and their common prefix ends inside that group:
    of ``old`` only that group is encoded, of ``new`` only the rows from
    it on.
    """
    row = first_difference(old, new)
    if row == old.size == new.size:
        return None
    start = row - row % 3
    group = b64(old[start : start + 3])
    rest = b64(new[start:])
    same = _common_prefix_len(group, rest)
    keep = start // 3 * 4 * old.dtype.itemsize + same
    if keep >= 32:
        return {_DELTA_KEY: "strtail", "keep": keep, "tail": rest[same:]}
    return {_DELTA_KEY: "full", "value": b64(new)}


def _apply(old: Any, delta: Dict[str, Any]) -> Any:
    """Inverse of :func:`_diff`: turn ``old`` into the new value.

    Dict and list nodes update ``old`` in place, so the caller must own
    it (the reader applies onto the tree it parsed), and so does a dict
    node over a column the reader is resolving; a string node builds a
    new string.  Raises :class:`ValueError` on a node that does not fit
    its base: a kind that does not match the base's type, a ``keep``
    outside ``[0, len(base)]``, or a tail of another type than the base.
    ``old`` may then be partly updated and must be discarded.
    """
    kind = delta[_DELTA_KEY]
    if kind == "full":
        return delta["value"]
    if kind == "dict":
        sets, drops = delta["set"], delta["drop"]
        if isinstance(old, _ReadColumn):
            old.apply(sets, drops)
            return old
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
        if isinstance(tail, _Tail):
            tail = tail.text + b64(tail.raw)
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
        payload = serialise_payload(checkpoint)
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
    keeps between cuts: the previous payload it diffs against (whose
    packed columns are views of the histories' own arrays) and
    :attr:`memo`, the :class:`~repro.state.codec.CaptureMemo` the
    chain's captures run in (they share their encoded rows), so
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
                body = _dumps({"base": self._base_name, "delta": delta})
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


class _ReadColumn(PackedColumn):
    """A packed column as :func:`_read_payload` resolves it.

    Its bytes are held as pieces: the base cut's decoded blob, then each
    delta's decoded tail.  A ``strtail`` delta drops and appends pieces
    (re-encoding only the quantum its ``keep`` falls in), so no level
    rebuilds the column, and :meth:`finish` joins the pieces into
    :attr:`array` once, after the last delta.  ``n`` and ``size`` are
    the declared rows and the bytes held, which must agree after every
    delta node.
    """

    __slots__ = ("n", "pieces", "size")

    def __init__(self, dtype: Any, n: Any, raw: bytes) -> None:
        self.dtype, self.n, self.pieces, self.size = dtype, n, [raw], len(raw)

    def fits(self) -> bool:
        """Whether the bytes held are ``n`` rows of the dtype."""
        return (
            self.dtype in PACKED_DTYPES
            and type(self.n) is int
            and self.size == self.n * np.dtype(self.dtype).itemsize
        )

    def __len__(self) -> int:
        return self.n

    def apply(self, sets: Any, drops: Any) -> None:
        """Apply a dict delta node to the blob this column reads from:
        ``full`` nodes on its keys, or a ``strtail`` node on its data."""
        if drops != [] or not (isinstance(sets, dict) and set(sets) <= _BLOB_KEYS):
            raise ValueError("dict delta node does not fit a packed column")
        for key, node in sets.items():
            kind = node[_DELTA_KEY]
            if key == "data" and kind == "strtail":
                self._strtail(node["keep"], node["tail"])
            elif kind != "full":
                raise ValueError(f"{kind} delta node does not fit a packed {key}")
            elif key == "data":
                self.pieces, self.size = [], 0
                self._strtail(0, node["value"])
            elif key == "n":
                self.n = node["value"]
            else:
                self.dtype = node["value"]
        if not self.fits():
            raise ValueError("delta leaves a packed column short of its rows")

    def _strtail(self, keep: Any, tail: Any) -> None:
        """Keep the first ``keep`` characters of the column's base64 text
        and append ``tail``, on its bytes."""
        text, raw = (tail.text, tail.raw) if isinstance(tail, _Tail) else (tail, b"")
        length = -(-self.size // 3) * 4
        if not (type(keep) is int and 0 <= keep <= length and isinstance(text, str)):
            raise ValueError(f"strtail delta keeps {keep!r} of {length} characters")
        start = keep // 4 * 3
        if start > self.size:
            # ``keep`` is the whole text, which ends in padding.
            if text or raw:
                raise ValueError("strtail delta appends after the padding")
            return
        dropped = self._truncate(start)
        quantum = base64.b64decode(b64(dropped)[: keep % 4] + text, validate=True)
        for piece in (quantum, raw):
            if piece:
                self.pieces.append(piece)
                self.size += len(piece)

    def _truncate(self, size: int) -> bytes:
        """Keep the first ``size`` bytes; the (up to) three bytes after them."""
        dropped: List[memoryview] = []
        while self.size > size:
            piece = memoryview(self.pieces.pop())
            self.size -= len(piece)
            if self.size < size:
                cut = size - self.size
                self.pieces.append(piece[:cut])
                self.size = size
                piece = piece[cut:]
            dropped.append(piece)
        head = b""
        for piece in reversed(dropped):
            head += piece[: 3 - len(head)].tobytes()
        return head

    def finish(self) -> None:
        """Join the pieces into :attr:`array`, once."""
        pieces = self.pieces
        raw = pieces[0] if len(pieces) == 1 else b"".join(pieces)
        self.array = np.frombuffer(raw, np.dtype(self.dtype))
        self.pieces = None


_BLOB_KEYS = frozenset(("__packed__", "n", "data"))


class _Tail:
    """A ``strtail`` node's tail as the reader holds it: ``text``, the
    characters that finish the quantum ``keep`` falls in, then ``raw``,
    the bytes the whole quanta after them decode to.  Only a tail whose
    quanta are canonical base64 is held so, and ``text + b64(raw)``
    gives it back; a packed column's tails always are."""

    __slots__ = ("text", "raw")

    def __init__(self, text: str, raw: bytes) -> None:
        self.text, self.raw = text, raw


def _decoded(text: str) -> Optional[bytes]:
    """The bytes ``text`` is the canonical base64 of, or ``None``."""
    try:
        raw = binascii.a2b_base64(text)
    except ValueError:
        return None
    # The lenient decode skips stray characters, which the length shows;
    # only a padded last quantum can carry bits the decode drops.
    padding = 2 if text.endswith("==") else 1 if text.endswith("=") else 0
    if len(text) % 4 or len(raw) != len(text) // 4 * 3 - padding:
        return None
    if text and (not raw or b64(raw[-(len(raw) % 3 or 3) :]) != text[-4:]):
        return None
    return raw


def _parse_tails(node: Any) -> None:
    """Hold each ``strtail`` tail of a delta tree as a :class:`_Tail`
    where its quanta after the one ``keep`` falls in are canonical
    base64, so a parsed chain holds its column data as bytes."""
    if not isinstance(node, dict):
        return
    kind = node.get(_DELTA_KEY)
    if kind == "dict" and isinstance(node.get("set"), dict):
        for sub in node["set"].values():
            _parse_tails(sub)
    elif kind == "strtail":
        keep, tail = node.get("keep"), node.get("tail")
        if type(keep) is int and keep >= 0 and isinstance(tail, str):
            split = -keep % 4
            raw = _decoded(tail[split:])
            if raw is not None:
                node["tail"] = _Tail(tail[:split], raw)


def _column_hook(made: List[_ReadColumn]):
    """A ``json`` object hook turning each packed blob whose data is
    canonical base64 of its rows into a :class:`_ReadColumn`, which it
    appends to ``made``."""

    def hook(obj: Dict[str, Any]) -> Any:
        if "__packed__" in obj and obj.keys() == _BLOB_KEYS:
            data = obj["data"]
            raw = _decoded(data) if isinstance(data, str) else None
            column = _ReadColumn(obj["__packed__"], obj["n"], raw or b"")
            if raw is not None and column.fits():
                made.append(column)
                return column
        return obj

    return hook


def read_checkpoint(path: str) -> Optional[CampaignCheckpoint]:
    """Load and verify a checkpoint; ``None`` when unusable.

    A file that exists but fails JSON parsing, checksum verification or
    schema validation, or holds a delta that does not fit its base, is
    quarantined to a ``.corrupt`` sibling; a merely unreadable file (I/O
    error) is left in place.  Either way the caller sees ``None`` and
    falls back to a from-scratch run.  Each well-formed packed blob
    comes back as a :class:`~repro.state.codec.PackedColumn`, decoded,
    for a restore to adopt as it is.
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
    Packed columns are decoded to bytes as each file is parsed, take
    their deltas as bytes, and are joined into arrays once, at the end.
    A corrupt file is quarantined at its own level; a delta whose base
    is missing or unusable returns ``None`` (the delta file itself is
    intact and may become loadable if the base reappears), and so does a
    chain longer than ``_MAX_CHAIN_DEPTH`` deltas (a cycle).  A delta
    that does not fit its base is quarantined and the partly updated
    tree is discarded.
    """
    made: List[_ReadColumn] = []
    deltas: List[Tuple[str, Dict[str, Any]]] = []
    for depth in range(_MAX_CHAIN_DEPTH, -1, -1):
        node = _read_node(path, made)
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
    for column in made:
        column.finish()
    return tree


def _read_node(
    path: str, made: List[_ReadColumn]
) -> Optional[Tuple[Optional[str], Any]]:
    """One verified envelope: ``(None, payload)`` for a full cut,
    ``(base path, delta)`` for a delta cut, ``None`` when unusable.

    The envelope and its payload string are dropped on return; only the
    parsed body stays, its packed columns appended to ``made``.  A
    corrupt file is quarantined.
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
        # Most delta cuts hold no whole blob, and parse without the hook.
        hook = _column_hook(made) if '"__packed__"' in payload_str else None
        body = json.loads(payload_str, object_hook=hook)
        if schema == CHECKPOINT_SCHEMA:
            return None, body
        if schema != DELTA_SCHEMA:
            raise ValueError(f"unknown envelope schema {schema!r}")
        base_name = body["base"]
        delta = body["delta"]
        if not isinstance(base_name, str) or os.path.sep in base_name:
            raise ValueError("delta base must be a sibling filename")
        _parse_tails(delta)
    except (KeyError, TypeError, ValueError):
        _quarantine(path)
        return None
    return os.path.join(os.path.dirname(os.path.abspath(path)), base_name), delta
