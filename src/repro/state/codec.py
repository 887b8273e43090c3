"""Serialisation helpers for state dicts.

Three layers:

- **Packed arrays** -- the hot instrument histories (a full-scale
  campaign accumulates ~half a million sensor records) are stored as
  base64-encoded little-endian ``float64``/``int64`` columns instead of
  JSON number lists (``docs/architecture.md``, "State & checkpoints",
  gives the measured flush cost).
- **Append-only histories** -- each record history (sensor polls,
  instrument readings, transfers, memory faults) declares its record
  type and ``(field, dtype)`` columns once, as a :class:`History`, and
  lives in a :class:`ColumnStore`: one typed array per column, with
  record objects built only when a reader asks for rows.  A capture
  packs only the rows added since the previous one, so a checkpoint cut
  costs O(new data) rather than O(history); a restore decodes each
  column once, checks that every column is present, of its dtype and of
  one length, and holds the decoded arrays as they are, so it costs
  O(bytes).  :func:`encode_rows` does the capture half for histories
  stored as encoded rows.  What a capture reuses lives in the
  :class:`CaptureMemo` of the checkpoint chain it runs in, so it is
  freed with that chain; a capture outside any chain encodes every
  history whole.  Either way the output is exactly what encoding the
  whole history gives.
- **Tagged values** -- configs, bus events, and fault plans are frozen
  dataclasses, enums, and datetimes.  :func:`encode_value` reduces them
  to tagged plain data and :func:`decode_value` rebuilds them against a
  fixed registry of ``repro.*`` classes -- nothing outside that
  registry is ever instantiated from a checkpoint.
"""

from __future__ import annotations

import base64
import contextvars
import dataclasses
import datetime as _dt
import enum
import functools
import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

_F64 = "<f8"
_I64 = "<i8"
_U8 = "|u1"


# ----------------------------------------------------------------------
# Packed columns
# ----------------------------------------------------------------------
def _pack(values, dtype: str) -> Dict[str, Any]:
    array = np.asarray(values, dtype=np.dtype(dtype))
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
    """A float column (a sequence or an array) as a base64 ``float64`` blob."""
    return _pack(values, _F64)


def unpack_floats(blob: Dict[str, Any]) -> List[float]:
    return _unpack(blob, _F64).tolist()


def pack_ints(values: Sequence[int]) -> Dict[str, Any]:
    """An int column (a sequence or an array) as a base64 ``int64`` blob."""
    return _pack(values, _I64)


def unpack_ints(blob: Dict[str, Any]) -> List[int]:
    return _unpack(blob, _I64).tolist()


def pack_bools(values: Sequence[bool]) -> Dict[str, Any]:
    """A bool column (a sequence or an array) as a base64 byte blob."""
    return _pack(np.asarray(values, dtype=bool).view(_U8), _U8)


def unpack_bools(blob: Dict[str, Any]) -> List[bool]:
    return (_unpack(blob, _U8) != 0).tolist()


def pack_optional_floats(values: Sequence[Optional[float]]) -> Dict[str, Any]:
    """Float-or-``None`` column; ``None`` rides as NaN.

    The instrument series this packs (sensor temperatures, logger
    readings) never contain a genuine NaN, so the sentinel is lossless.
    """
    return _pack(_KINDS[Optional[float]].encode(values), _F64)


def unpack_optional_floats(blob: Dict[str, Any]) -> List[Optional[float]]:
    return _KINDS[Optional[float]].decode(_unpack(blob, _F64))


# ----------------------------------------------------------------------
# Append-only histories
# ----------------------------------------------------------------------
class _Kind(NamedTuple):
    """How one column dtype is stored: ``encode`` values to an array,
    ``decode`` it back, and a nonzero ``codes`` bounds a column of indices."""

    dtype: str
    encode: Callable[[Sequence[Any]], np.ndarray]
    decode: Callable[[np.ndarray], List[Any]]
    codes: int = 0


_KINDS: Dict[Any, _Kind] = {
    float: _Kind(_F64, functools.partial(np.asarray, dtype=_F64), np.ndarray.tolist),
    int: _Kind(_I64, functools.partial(np.asarray, dtype=_I64), np.ndarray.tolist),
    bool: _Kind(
        _U8, lambda v: np.asarray(v, dtype=bool).view(_U8), lambda c: (c != 0).tolist(), 2
    ),
    Optional[float]: _Kind(
        _F64,
        lambda v: np.array([math.nan if x is None else x for x in v], dtype=_F64),
        lambda c: [None if v != v else v for v in c.tolist()],
    ),
}


def _code_table(values: Tuple[Any, ...]) -> _Kind:
    """A column storing each value's index in ``values`` as an ``int64``."""
    codes = {value: code for code, value in enumerate(values)}
    return _Kind(
        _I64,
        lambda column: np.array([codes[value] for value in column], dtype=_I64),
        lambda column: [values[code] for code in column.tolist()],
        codes=len(values),
    )


class History:
    """The typed-column format of one append-only record history.

    Declared once per owner, e.g.
    ``History(PowerReading, [("time", float), ("watts", float)])``:
    ``record`` is the row dataclass and ``columns`` names every one of
    its fields, in order, with its dtype -- ``float``, ``int``,
    ``bool``, ``Optional[float]`` (``None`` rides as NaN), or a tuple of
    values stored as their index in it.  ``check``, if given, is called
    with a ``{name: array}`` mapping of rows about to enter a store and
    raises ``ValueError`` to refuse them.  :meth:`store` makes an empty
    :class:`ColumnStore`, :meth:`restore` loads a captured one.
    """

    def __init__(
        self,
        record: Type,
        columns: Sequence[Tuple[str, Any]],
        check: Optional[Callable[[Dict[str, np.ndarray]], None]] = None,
    ) -> None:
        names = tuple(name for name, _ in columns)
        fields = tuple(f.name for f in dataclasses.fields(record) if f.init)
        if names != fields:
            raise TypeError(
                f"{record.__name__} history columns {names} are not its fields {fields}"
            )
        self.record = record
        self.names = names
        self.kinds = [
            _code_table(dtype) if isinstance(dtype, tuple) else _KINDS[dtype]
            for _, dtype in columns
        ]
        self.check = check

    def store(self) -> "ColumnStore":
        """An empty history."""
        return ColumnStore(self, [np.empty(0, kind.dtype) for kind in self.kinds], 0)

    def restore(self, blob: Dict[str, Any]) -> "ColumnStore":
        """A captured history, one decode per column and no row objects.

        Raises ``KeyError`` for a missing column and ``ValueError`` for a
        column of the wrong dtype or length, a code out of range, or rows
        ``check`` refuses; callers parse inside :func:`repro.state.protocol.parsing`.
        """
        columns = [
            _unpack(blob[name], kind.dtype) for name, kind in zip(self.names, self.kinds)
        ]
        if len({column.size for column in columns}) != 1:
            raise ValueError(f"{self.record.__name__} history columns differ in length")
        self._validate(columns)
        return ColumnStore(self, columns, columns[0].size)

    def _validate(self, columns: List[np.ndarray]) -> None:
        for kind, column in zip(self.kinds, columns):
            if kind.codes and column.size and not (
                0 <= column.min() and column.max() < kind.codes
            ):
                raise ValueError("code column holds an unknown code")
        if self.check is not None:
            self.check(dict(zip(self.names, columns)))


class CaptureMemo:
    """What one checkpoint chain keeps so each cut encodes only new rows.

    Captures made inside ``with memo:`` reuse, per history, what the
    previous capture in the memo made: a :class:`ColumnStore`'s packed
    columns, an encoded-rows list's rows.  Captures outside any memo
    encode every history whole; both give the same output.  Entries are
    keyed by the history object, which the memo holds, and nothing else
    holds an entry, so dropping the memo frees all of it.  The active
    memo is a context variable, not a parameter, because captures run
    deep inside every component's ``state_dict()``.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[Any, list]] = {}
        self._tokens: List[contextvars.Token] = []

    def __enter__(self) -> "CaptureMemo":
        self._tokens.append(_ACTIVE_MEMO.set(self))
        return self

    def __exit__(self, *exc: Any) -> None:
        _ACTIVE_MEMO.reset(self._tokens.pop())


_ACTIVE_MEMO: contextvars.ContextVar[Optional[CaptureMemo]] = contextvars.ContextVar(
    "repro_capture_memo", default=None
)


def _memo_entry(history: Any, empty: list) -> list:
    """The active memo's entry for ``history`` (``empty`` the first time
    it is seen); ``empty`` itself when no memo is active."""
    memo = _ACTIVE_MEMO.get()
    if memo is None:
        return empty
    return memo._entries.setdefault(id(history), (history, empty))[1]


def encode_rows(history: list, encode: Callable[[Any], Any]) -> List[Any]:
    """``[encode(row) for row in history]`` as a new list.

    Inside a :class:`CaptureMemo` the rows are the objects earlier
    captures made and only the rows appended since are encoded.  The
    list is only ever appended to; an owner that rewrites it assigns a
    new list, which the memo sees as a new history.
    """
    rows = _memo_entry(history, [])
    if len(history) < len(rows):
        rows.clear()
    rows.extend(map(encode, history[len(rows):]))
    return list(rows)


#: Rows appended one at a time wait as plain values in a short tail and
#: enter the typed columns in batches of about this many values.
_TAIL_VALUES = 1024


class ColumnStore:
    """One append-only record history, held as one typed array per column.

    :meth:`append` takes one row's values in declared order, :meth:`extend`
    a batch of whole columns.  :meth:`column` is a read-only view of one
    column; iteration, indexing and :meth:`rows` build record objects on
    demand, and the store keeps none.  Rows are only ever appended (an
    owner that rewrites its history assigns a new store), and arrays grow
    by doubling, so a view handed out earlier keeps the rows it had.
    """

    __slots__ = ("_history", "_columns", "_n", "_tail")

    def __init__(self, history: History, columns: List[np.ndarray], n: int) -> None:
        self._history = history
        self._columns = columns
        self._n = n
        self._tail: List[Any] = []

    def __len__(self) -> int:
        return self._n + len(self._tail) // len(self._columns)

    def append(self, *values: Any) -> None:
        """Append one row, its values in declared column order."""
        if len(values) != len(self._columns):
            raise TypeError(f"a row has {len(self._columns)} values, got {len(values)}")
        tail = self._tail
        tail += values
        if len(tail) >= _TAIL_VALUES:
            self._seal()

    def _seal(self) -> None:
        tail = self._tail
        if tail:
            self._tail = []
            width = len(self._columns)
            self.extend(*(tail[i::width] for i in range(width)))

    def extend(self, *columns: Sequence[Any]) -> None:
        """Append a batch of rows given as one sequence per column."""
        self._seal()
        history = self._history
        arrays = [kind.encode(column) for kind, column in zip(history.kinds, columns)]
        if len({array.size for array in arrays}) != 1:
            raise ValueError("appended columns differ in length")
        history._validate(arrays)
        n = self._n
        end = n + arrays[0].size
        for i, array in enumerate(arrays):
            column = self._columns[i]
            if column.size < end or not column.flags.writeable:
                grown = np.empty(max(end, 2 * column.size, 16), column.dtype)
                grown[:n] = column[:n]
                self._columns[i] = column = grown
            column[n:end] = array
        self._n = end

    def column(self, name: str) -> np.ndarray:
        """A read-only view of one column: ``Optional[float]`` as floats
        with NaN for ``None``, a code table as its codes, bools as bools."""
        self._seal()
        i = self._history.names.index(name)
        view = self._columns[i][: self._n]
        if self._history.kinds[i].dtype == _U8:
            view = view.view(np.bool_)
        view.flags.writeable = False
        return view

    def rows(self, where: Optional[np.ndarray] = None) -> list:
        """Record objects for every row, or for the rows a boolean mask
        (or an index array) selects."""
        self._seal()
        columns = [column[: self._n] for column in self._columns]
        if where is not None:
            columns = [column[where] for column in columns]
        values = [kind.decode(c) for kind, c in zip(self._history.kinds, columns)]
        return list(map(self._history.record, *values))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.rows())

    def __getitem__(self, index: int) -> Any:
        return self.rows(np.array([range(len(self))[index]]))[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ColumnStore, list)):
            return self.rows() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def capture(self) -> Dict[str, Any]:
        """Every column packed, exactly as packing the whole column gives.

        Inside a :class:`CaptureMemo`, three rows of any dtype fill whole
        base64 quanta, so the previous capture's data string up to its
        last multiple of three rows is reused and only the rows after it
        are packed; an unchanged column returns the very same string.
        The caller owns the dicts returned.
        """
        self._seal()
        n = self._n
        captured = _memo_entry(self, [None] * len(self._columns))
        out = {}
        for i, (name, kind) in enumerate(zip(self._history.names, self._history.kinds)):
            blob = captured[i]
            if blob is None or blob["n"] != n:
                sealed = 0 if blob is None else blob["n"] - blob["n"] % 3
                packed = _pack(self._columns[i][sealed:n], kind.dtype)
                if sealed:
                    chars = sealed // 3 * 4 * np.dtype(kind.dtype).itemsize
                    packed["data"] = blob["data"][:chars] + packed["data"]
                    packed["n"] = n
                captured[i] = blob = packed
            out[name] = dict(blob)
        return out


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
