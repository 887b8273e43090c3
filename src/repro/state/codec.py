"""Serialisation helpers for state dicts.

Three layers:

- **Packed arrays** -- the hot instrument histories (a full-scale
  campaign accumulates ~half a million sensor records) are stored as
  base64-encoded little-endian ``float64``/``int64`` columns instead of
  JSON number lists (``docs/architecture.md``, "State & checkpoints",
  gives the measured flush cost).
- **Append-only histories** -- each record history (sensor polls,
  instrument readings, transfers, memory faults) declares its record
  type and ``(field, dtype)`` columns once, as a :class:`History`.  That
  one declaration drives the capture, which packs only the rows added
  since the previous capture so a checkpoint cut costs O(new data)
  rather than O(history), and the restore, which checks that every
  column is present, of its dtype and of one length before it builds
  the rows column-wise.  :class:`EncodedRows` does the capture half for
  histories stored as encoded rows.  Either way the output is exactly
  what encoding the whole list gives.
- **Tagged values** -- configs, bus events, and fault plans are frozen
  dataclasses, enums, and datetimes.  :func:`encode_value` reduces them
  to tagged plain data and :func:`decode_value` rebuilds them against a
  fixed registry of ``repro.*`` classes -- nothing outside that
  registry is ever instantiated from a checkpoint.
"""

from __future__ import annotations

import base64
import dataclasses
import datetime as _dt
import enum
import functools
import math
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

_F64 = "<f8"
_I64 = "<i8"
_U8 = "|u1"


# ----------------------------------------------------------------------
# Packed columns
# ----------------------------------------------------------------------
def _pack(values, dtype: str) -> Dict[str, Any]:
    array = np.asarray(list(values), dtype=np.dtype(dtype))
    return {"__packed__": dtype, "n": int(array.size),
            "data": base64.b64encode(array.tobytes()).decode("ascii")}


def _unpack(blob: Dict[str, Any], dtype: str) -> np.ndarray:
    if blob.get("__packed__") != dtype:
        raise ValueError(f"expected a packed {dtype} column, got {blob!r:.80}")
    raw = base64.b64decode(blob["data"].encode("ascii"))
    array = np.frombuffer(raw, dtype=np.dtype(dtype))
    if array.size != blob["n"]:
        raise ValueError("packed column length mismatch")
    return array


def pack_floats(values: Sequence[float]) -> Dict[str, Any]:
    """A float column as a base64 ``float64`` blob."""
    return _pack(values, _F64)


def unpack_floats(blob: Dict[str, Any]) -> List[float]:
    return _unpack(blob, _F64).tolist()


def pack_ints(values: Sequence[int]) -> Dict[str, Any]:
    """An int column as a base64 ``int64`` blob."""
    return _pack(values, _I64)


def unpack_ints(blob: Dict[str, Any]) -> List[int]:
    return _unpack(blob, _I64).tolist()


def pack_bools(values: Sequence[bool]) -> Dict[str, Any]:
    """A bool column as a base64 byte blob."""
    return _pack([1 if v else 0 for v in values], _U8)


def unpack_bools(blob: Dict[str, Any]) -> List[bool]:
    return (_unpack(blob, _U8) != 0).tolist()


def pack_optional_floats(values: Sequence[Optional[float]]) -> Dict[str, Any]:
    """Float-or-``None`` column; ``None`` rides as NaN.

    The instrument series this packs (sensor temperatures, logger
    readings) never contain a genuine NaN, so the sentinel is lossless.
    """
    return pack_floats([math.nan if v is None else float(v) for v in values])


def unpack_optional_floats(blob: Dict[str, Any]) -> List[Optional[float]]:
    return [None if math.isnan(v) else v for v in _unpack(blob, _F64).tolist()]


# ----------------------------------------------------------------------
# Append-only histories
# ----------------------------------------------------------------------
# Contract: a history's rows are only ever appended.  A row already
# captured is never edited in place, and the list is never shortened
# in place; an owner that rewrites its history (``load_state_dict``)
# assigns a new list, which starts the memo over.  Each capture returns
# fresh containers that share the memo's strings and encoded rows, so
# the checkpoint writer's base payload holds the same objects and the
# memo keeps no copy of its own.

#: Column dtype -> (packer, unpacker).
_COLUMN_CODECS: Dict[Any, Tuple[Callable, Callable]] = {
    float: (pack_floats, unpack_floats),
    int: (pack_ints, unpack_ints),
    bool: (pack_bools, unpack_bools),
    Optional[float]: (pack_optional_floats, unpack_optional_floats),
}


def _code_table(values: Tuple[Any, ...]) -> Tuple[Callable, Callable]:
    """Packer and unpacker of a column storing each value's index in
    ``values`` as an ``int64``."""
    codes = {value: code for code, value in enumerate(values)}

    def pack(column: Sequence[Any]) -> Dict[str, Any]:
        return pack_ints([codes[value] for value in column])

    def unpack(blob: Dict[str, Any]) -> List[Any]:
        column = unpack_ints(blob)
        if column and not 0 <= min(column) <= max(column) < len(values):
            raise ValueError("code column holds an unknown code")
        return [values[code] for code in column]

    return pack, unpack


class History:
    """The packed-column format of one append-only record history.

    Declared once per owner, e.g.
    ``History(PowerReading, [("time", float), ("watts", float)])``:
    ``record`` is the row dataclass and ``columns`` names every one of
    its fields, in order, with its dtype -- ``float``, ``int``,
    ``bool``, ``Optional[float]`` (``None`` rides as NaN), or a tuple of
    values stored as their index in it.  :meth:`packer` captures the
    history, :meth:`restore` rebuilds it.
    """

    def __init__(self, record: Type, columns: Sequence[Tuple[str, Any]]) -> None:
        names = tuple(name for name, _ in columns)
        fields = tuple(f.name for f in dataclasses.fields(record) if f.init)
        if names != fields:
            raise TypeError(
                f"{record.__name__} history columns {names} are not its fields {fields}"
            )
        self.record = record
        self.names = names
        self._codecs = [
            _code_table(dtype) if isinstance(dtype, tuple) else _COLUMN_CODECS[dtype]
            for _, dtype in columns
        ]

    def packer(self) -> "HistoryPacker":
        """A capture memo for one owner's history."""
        return HistoryPacker(self)

    def restore_columns(self, blob: Dict[str, Any]) -> List[List[Any]]:
        """The columns of a captured history, in declared order.

        Raises ``KeyError`` for a missing column and ``ValueError`` for
        a column of the wrong dtype or length; callers parse inside
        :func:`repro.state.protocol.parsing`.
        """
        columns = [
            unpack(blob[name]) for name, (_, unpack) in zip(self.names, self._codecs)
        ]
        if len({len(column) for column in columns}) != 1:
            raise ValueError(f"{self.record.__name__} history columns differ in length")
        return columns

    def restore(self, blob: Dict[str, Any]) -> list:
        """The rows of a captured history, built column-wise."""
        return list(map(self.record, *self.restore_columns(blob)))


class HistoryPacker:
    """Captures one owner's history in its :class:`History` format.

    ``pack(rows)`` returns exactly what packing each column of the whole
    list gives; ``pack_columns(columns)`` does the same for an owner
    that stores the history as one list per column.
    """

    def __init__(self, history: History) -> None:
        self._names = history.names
        self._getters = [attrgetter(name) for name in history.names]
        self._columns = [_PackedColumn(pack) for pack, _ in history._codecs]

    def pack(self, rows: list) -> Dict[str, Any]:
        return {
            name: column.pack(rows, field)
            for name, column, field in zip(self._names, self._columns, self._getters)
        }

    def pack_columns(self, columns: Sequence[list]) -> Dict[str, Any]:
        return {
            name: column.pack(values)
            for name, column, values in zip(self._names, self._columns, columns)
        }


class _PackedColumn:
    """One packed column of an append-only history, encoded incrementally.

    ``column.pack(history, field)`` returns exactly
    ``packer([field(row) for row in history])`` (``field`` defaults to
    the row itself).  Three rows of any packed dtype fill whole base64
    quanta, so the data string of the previous capture up to its last
    multiple of three rows is reused as is and only the rows after it
    are packed.
    """

    def __init__(self, packer: Callable[[Sequence[Any]], Dict[str, Any]]) -> None:
        self._packer = packer
        self._source: Optional[list] = None
        self._blob: Optional[Dict[str, Any]] = None

    def pack(
        self, history: list, field: Optional[Callable[[Any], Any]] = None
    ) -> Dict[str, Any]:
        blob = self._blob
        n = len(history)
        if blob is None or history is not self._source or n < blob["n"]:
            self._source, sealed = history, 0
        elif n == blob["n"]:
            return dict(blob)
        else:
            sealed = blob["n"] - blob["n"] % 3
        tail = history[sealed:]
        if field is not None:
            tail = [field(row) for row in tail]
        packed = self._packer(tail)
        if sealed:
            chars = sealed // 3 * 4 * np.dtype(packed["__packed__"]).itemsize
            packed["data"] = blob["data"][:chars] + packed["data"]
            packed["n"] = n
        self._blob = packed
        return dict(packed)


class EncodedRows:
    """An append-only history as a list of encoded rows, each encoded once.

    ``rows.encode(history)`` returns ``[encode(row) for row in history]``
    as a new list whose rows are the objects earlier captures made.
    """

    def __init__(self, encode: Callable[[Any], Any]) -> None:
        self._encode = encode
        self._source: Optional[list] = None
        self._rows: List[Any] = []

    def encode(self, history: list) -> List[Any]:
        if history is not self._source or len(history) < len(self._rows):
            self._source, self._rows = history, []
        rows = self._rows
        rows.extend(map(self._encode, history[len(rows):]))
        return list(rows)


# ----------------------------------------------------------------------
# Tagged values
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _class_registry() -> Dict[str, Type]:
    """Name -> class for everything a checkpoint may instantiate.

    Imported lazily so the state package stays import-light and free of
    cycles (core and monitoring import it back); built once per process.
    """
    from repro.climate import profiles as _profiles
    from repro.control import controllers as _controllers
    from repro.control import observation as _observation
    from repro.core import config as _config
    from repro.core import results as _results
    from repro.hardware import faults as _hwfaults
    from repro.monitoring import health as _health
    from repro.monitoring import transport as _transport
    from repro.plant import faults as _plant
    from repro.plant import trip as _trip
    from repro.runner import policy as _policy
    from repro.sim import events as _events
    from repro.thermal import tent as _tent

    classes: List[Type] = [
        _config.ExperimentConfig,
        _config.HostPlan,
        _config.TentModificationPlan,
        _hwfaults.TransientFaultModel,
        _hwfaults.MemoryFaultModel,
        _hwfaults.FaultKind,
        _tent.Modification,
        _results.PrototypeResult,
        _results.SnapshotCensus,
        _transport.LinkFault,
        _transport.LinkFaultAction,
        _transport.LinkFaultPlan,
        _transport.LinkStorm,
        _health.HealthPolicy,
        _policy.RetryPolicy,
        _plant.PlantFault,
        _plant.PlantFaultKind,
        _plant.PlantFaultPlan,
        _plant.PlantStorm,
        _trip.ThermalTripPolicy,
        _controllers.ControllerSpec,
        _controllers.ControlAction,
        _observation.ControlObservation,
    ]
    classes.extend(
        obj
        for obj in vars(_events).values()
        if isinstance(obj, type)
        and issubclass(obj, _events.Event)
        and dataclasses.is_dataclass(obj)
    )
    classes.extend(
        obj
        for obj in vars(_profiles).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    )
    return {cls.__name__: cls for cls in classes}


def encode_value(value: Any) -> Any:
    """Reduce a value to tagged, JSON-serialisable plain data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "name": value.name}
    if isinstance(value, _dt.datetime):
        return {"__datetime__": value.isoformat()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__} into a checkpoint")


def decode_value(data: Any) -> Any:
    """Rebuild :func:`encode_value` output; tuples come back as tuples.

    Dataclass fields declared as lists keep list values; every other
    encoded sequence decodes to a tuple, which matches how the frozen
    config/event classes declare their collections.
    """
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return tuple(decode_value(v) for v in data)
    if isinstance(data, dict):
        if "__enum__" in data:
            cls = _lookup(data["__enum__"])
            return cls[data["name"]]
        if "__datetime__" in data:
            return _dt.datetime.fromisoformat(data["__datetime__"])
        if "__dataclass__" in data:
            cls = _lookup(data["__dataclass__"])
            fields = {k: decode_value(v) for k, v in data["fields"].items()}
            known = {f.name for f in dataclasses.fields(cls)}
            return cls(**{k: v for k, v in fields.items() if k in known})
        return {k: decode_value(v) for k, v in data.items()}
    raise TypeError(f"cannot decode {type(data).__name__} from a checkpoint")


def _lookup(name: str) -> Type:
    registry = _class_registry()
    if name not in registry:
        raise ValueError(f"checkpoint names unknown class {name!r}")
    return registry[name]
