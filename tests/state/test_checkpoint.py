"""Tests for the checkpoint envelope, tagged codec, and crash-safe IO."""

import datetime as dt
import enum
import json
import os
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExperimentConfig
from repro.state import codec
from repro.state.checkpoint import (
    CHECKPOINT_SCHEMA,
    CampaignCheckpoint,
    _diff,
    read_checkpoint,
    write_checkpoint,
)
from repro.state.protocol import StateError, check_version


def _checkpoint(**overrides) -> CampaignCheckpoint:
    base = dict(
        config_digest="abc123",
        sim_time=86400.0,
        seed=7,
        components={"engine": {"version": 1, "now": 86400.0}},
        meta={"ran": True},
    )
    base.update(overrides)
    return CampaignCheckpoint(**base)


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        original = _checkpoint()
        assert write_checkpoint(path, original)
        loaded = read_checkpoint(path)
        assert loaded is not None
        assert loaded.config_digest == original.config_digest
        assert loaded.sim_time == original.sim_time
        assert loaded.seed == original.seed
        assert loaded.components == original.components
        assert loaded.meta == original.meta
        assert loaded.schema == CHECKPOINT_SCHEMA

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "ck.json")
        assert write_checkpoint(path, _checkpoint())
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_write_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "nested" / "deep" / "ck.json")
        assert write_checkpoint(path, _checkpoint())
        assert read_checkpoint(path) is not None

    def test_unencodable_component_degrades_to_false(self, tmp_path):
        path = str(tmp_path / "ck.json")
        bad = _checkpoint(components={"engine": {"fn": object()}})
        assert write_checkpoint(path, bad) is False
        assert not os.path.exists(path)

    def test_missing_file_is_none(self, tmp_path):
        assert read_checkpoint(str(tmp_path / "absent.json")) is None

    def test_meta_codec_round_trips_config(self, tmp_path):
        path = str(tmp_path / "ck.json")
        original = _checkpoint()
        config = ExperimentConfig(seed=11)
        original.encode_meta("config", config)
        original.encode_meta("when", dt.datetime(2010, 3, 1, 12))
        write_checkpoint(path, original)
        loaded = read_checkpoint(path)
        assert loaded.decode_meta("config") == config
        assert loaded.decode_meta("when") == dt.datetime(2010, 3, 1, 12)
        assert loaded.decode_meta("absent", default="x") == "x"


class TestQuarantine:
    def _corrupt_siblings(self, tmp_path):
        return [n for n in os.listdir(tmp_path) if n.endswith(".corrupt")]

    def test_unparsable_json_quarantined(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as fh:
            fh.write("{not json at all")
        assert read_checkpoint(path) is None
        assert not os.path.exists(path)
        assert self._corrupt_siblings(tmp_path) == ["ck.json.corrupt"]

    def test_checksum_mismatch_quarantined(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, _checkpoint())
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["payload"] = envelope["payload"].replace("86400.0", "86400.5")
        with open(path, "w") as fh:
            json.dump(envelope, fh)
        assert read_checkpoint(path) is None
        assert not os.path.exists(path)
        assert self._corrupt_siblings(tmp_path) == ["ck.json.corrupt"]

    def test_unknown_schema_quarantined(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, _checkpoint(schema=CHECKPOINT_SCHEMA + 1))
        assert read_checkpoint(path) is None
        assert self._corrupt_siblings(tmp_path) == ["ck.json.corrupt"]

    def test_quarantined_file_never_reparsed(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as fh:
            fh.write("garbage")
        assert read_checkpoint(path) is None
        # A second read sees no file at all (the poison moved aside).
        assert read_checkpoint(path) is None
        assert self._corrupt_siblings(tmp_path) == ["ck.json.corrupt"]


class TestPackedColumns:
    def test_floats_round_trip(self):
        values = [0.0, -1.5, 3.25e17, 1e-300]
        assert codec.unpack_floats(codec.pack_floats(values)) == values

    def test_ints_round_trip(self):
        values = [0, -7, 2**53]
        assert codec.unpack_ints(codec.pack_ints(values)) == values

    def test_bools_round_trip(self):
        values = [True, False, True, True]
        assert codec.unpack_bools(codec.pack_bools(values)) == values

    def test_optional_floats_round_trip_none(self):
        values = [1.0, None, -2.5, None]
        packed = codec.pack_optional_floats(values)
        assert codec.unpack_optional_floats(packed) == values

    def test_packed_blob_is_json_serialisable(self):
        blob = codec.pack_floats([1.0, 2.0])
        assert json.loads(json.dumps(blob)) == blob

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(ValueError):
            codec.unpack_ints(codec.pack_floats([1.0]))


#: Each column dtype with its packer and values it packs; floats include
#: NaN and infinities.
_PACKERS = {
    "floats": (float, codec.pack_floats, st.floats(width=64)),
    "ints": (int, codec.pack_ints, st.integers(-(2**63), 2**63 - 1)),
    "bools": (bool, codec.pack_bools, st.booleans()),
    "optional_floats": (
        Optional[float],
        codec.pack_optional_floats,
        st.none() | st.floats(allow_nan=False),
    ),
}


@dataclass(frozen=True)
class _Value:
    value: Any


class _Phase(enum.Enum):
    DAY = "day"
    NIGHT = "night"


@dataclass(frozen=True)
class _Row:
    time: float
    temp_c: Optional[float]
    phase: _Phase


_ROWS = codec.History(
    _Row,
    [
        ("time", float),
        ("temp_c", Optional[float]),
        ("phase", (_Phase.DAY, _Phase.NIGHT)),
    ],
)


@dataclass(frozen=True)
class _Mixed:
    time: float
    temp_c: Optional[float]
    phase: _Phase
    flag: bool


_MIXED = codec.History(
    _Mixed,
    [
        ("time", float),
        ("temp_c", Optional[float]),
        ("phase", (_Phase.DAY, _Phase.NIGHT)),
        ("flag", bool),
    ],
)


def _steps(values):
    """Captures of one history: each step appends 0-7 rows (so the length
    before a capture runs through every residue mod 3), or replaces the
    history with a new one."""
    append = st.tuples(st.just("append"), st.lists(values, max_size=7))
    replace = st.tuples(st.just("replace"), st.lists(values, max_size=10))
    return st.lists(append | replace, min_size=1, max_size=12)


def _filled(history_format, rows):
    store = history_format.store()
    for row in rows:
        store.append(*row)
    return store


class TestAppendOnlyHistories:
    @pytest.mark.parametrize("kind", sorted(_PACKERS))
    def test_packed_column_equals_packing_the_whole_list(self, kind):
        """Each capture writes the blob packing the whole list gives, and
        the delta the writer builds from two captures' arrays is the
        string delta of those two blobs, whatever the lengths mod 3."""
        dtype, packer, values = _PACKERS[kind]
        history_format = codec.History(_Value, [("value", dtype)])

        @settings(max_examples=150, deadline=None)
        @given(_steps(values))
        def check(steps):
            store = history_format.store()
            history = []
            previous = previous_blob = None
            for op, rows in steps:
                if op == "replace":
                    history = list(rows)
                    store = _filled(history_format, [(v,) for v in rows])
                else:
                    history.extend(rows)
                    for value in rows:
                        store.append(value)
                blob = store.capture()
                whole = packer(history)
                assert blob == {"value": whole}
                assert blob["value"].blob() == whole
                if previous is not None:
                    assert _diff(previous, blob["value"]) == _diff(previous_blob, whole)
                previous, previous_blob = blob["value"], whole
                # The caller owns the blob dict it gets back.
                blob["value"] = None

        check()

    def test_packed_column_reads_rows_through_field(self):
        store = _ROWS.store()
        history = []
        for i in range(10):
            phase = _Phase.NIGHT if i % 4 else _Phase.DAY
            row = _Row(i * 600.0, None if i == 3 else -i / 2, phase)
            history.append(row)
            store.append(row.time, row.temp_c, row.phase)
            assert store.capture() == {
                "time": codec.pack_floats([r.time for r in history]),
                "temp_c": codec.pack_optional_floats([r.temp_c for r in history]),
                "phase": codec.pack_ints(
                    [0 if r.phase is _Phase.DAY else 1 for r in history]
                ),
            }
            assert _ROWS.restore(store.capture()) == history
            assert list(store) == history and store[-1] == row

    def test_unchanged_history_shares_its_data_string(self):
        history_format = codec.History(_Value, [("value", float)])
        store = _filled(history_format, [(1.0,), (2.0,), (3.0,), (4.0,)])
        first = store.capture()["value"]
        again = store.capture()["value"]
        # A capture copies nothing: both are views of the store's array.
        assert again is not first and again == first
        assert np.shares_memory(again.array, first.array)
        assert np.shares_memory(first.array, store.column("value"))
        # Rows appended later leave a captured column as it was.
        for i in range(700):
            store.append(float(i))
        assert first == codec.pack_floats([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            first.array[0] = 5.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(
                        st.floats(width=64),
                        st.none() | st.floats(allow_nan=False),
                        st.sampled_from((_Phase.DAY, _Phase.NIGHT)),
                        st.booleans(),
                    ),
                    max_size=9,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_store_captures_restores_and_recaptures(self, steps):
        """Random appends over every column kind, captured at random
        points: each capture equals packing the whole columns, restoring
        adopts the captured arrays and recapturing gives the same
        columns, and an unchanged store hands back the very same
        memory."""
        store = _MIXED.store()
        rows = []
        for new_rows, capture_twice in steps:
            for row in new_rows:
                store.append(*row)
            rows.extend(new_rows)
            blob = store.capture()
            assert blob == {
                "time": codec.pack_floats([r[0] for r in rows]),
                "temp_c": codec.pack_optional_floats([r[1] for r in rows]),
                "phase": codec.pack_ints([0 if r[2] is _Phase.DAY else 1 for r in rows]),
                "flag": codec.pack_bools([r[3] for r in rows]),
            }
            assert len(store) == len(rows)
            recaptured = _MIXED.restore(blob).capture()
            assert recaptured == blob
            if capture_twice:
                again = store.capture()
                for name, column in again.items():
                    assert column == blob[name]
                    assert not rows or np.shares_memory(column.array, blob[name].array)
                    assert not rows or np.shares_memory(
                        recaptured[name].array, blob[name].array
                    )

    def test_views_are_read_only_and_keep_their_rows(self):
        store = _filled(_MIXED, [(1.0, None, _Phase.DAY, True)])
        times = store.column("time")
        with pytest.raises(ValueError):
            times[0] = 5.0
        # Enough rows to fill the append tail several times over.
        for i in range(700):
            store.append(float(i), 2.0, _Phase.NIGHT, False)
        assert times.tolist() == [1.0]
        assert store.column("flag").tolist() == [True] + [False] * 700
        assert np.isnan(store.column("temp_c")[0])
        assert store.column("phase")[1] == 1

    def test_columns_must_name_the_record_fields(self):
        with pytest.raises(TypeError):
            codec.History(_Row, [("time", float), ("temp_c", Optional[float])])

    @settings(max_examples=150, deadline=None)
    @given(_steps(st.tuples(st.integers(), st.text(max_size=3))))
    def test_encoded_rows_equal_encoding_the_whole_list(self, steps):
        history = []
        previous = []
        with codec.CaptureMemo():
            for op, new in steps:
                if op == "replace":
                    history, previous = list(new), []
                else:
                    history.extend(new)
                encoded = codec.encode_rows(history, list)
                assert encoded == [list(row) for row in history]
                assert encoded is not previous
                # Rows encoded before are the very same objects.
                assert all(a is b for a, b in zip(encoded, previous))
                previous = list(encoded)
                # The caller owns the list it gets back.
                encoded.append("junk")
        again = codec.encode_rows(history, list)
        assert again == [list(row) for row in history]
        assert not any(a is b for a, b in zip(again, previous))


class TestTaggedValues:
    def test_dataclass_round_trip(self):
        config = ExperimentConfig(seed=3)
        encoded = codec.encode_value(config)
        assert json.loads(json.dumps(encoded)) == encoded
        assert codec.decode_value(encoded) == config

    def test_enum_and_datetime_round_trip(self):
        from repro.thermal.tent import Modification

        for value in (
            Modification.REFLECTIVE_FOIL,
            dt.datetime(2010, 4, 1, 9, 30),
        ):
            assert codec.decode_value(codec.encode_value(value)) == value

    def test_sequences_decode_to_tuples(self):
        assert codec.decode_value(codec.encode_value((1, 2, 3))) == (1, 2, 3)
        assert codec.decode_value(codec.encode_value([1, 2])) == (1, 2)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown class"):
            codec.decode_value({"__dataclass__": "EvilClass", "fields": {}})

    def test_unencodable_object_rejected(self):
        with pytest.raises(TypeError):
            codec.encode_value(object())


class TestProtocol:
    def test_check_version_accepts_match(self):
        check_version("widget", {"version": 2}, 2)

    def test_check_version_rejects_mismatch(self):
        with pytest.raises(StateError, match="widget"):
            check_version("widget", {"version": 1}, 2)

    def test_check_version_rejects_missing(self):
        with pytest.raises(StateError):
            check_version("widget", {}, 1)
