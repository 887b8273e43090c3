"""Delta checkpoint chain: diff/apply algebra, writer cadence, recovery."""

import base64
import copy
import gc
import hashlib
import json
import os
import random
import string
import tracemalloc
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.state import codec
from repro.state.checkpoint import (
    CHECKPOINT_SCHEMA,
    DELTA_SCHEMA,
    CampaignCheckpoint,
    DeltaCheckpointWriter,
    _apply,
    _common_prefix_len,
    _decoded,
    _diff,
    read_checkpoint,
)


@dataclass(frozen=True)
class _Sample:
    time: float
    value: float


def _checkpoint(sim_time, components=None, meta=None):
    return CampaignCheckpoint(
        config_digest="digest",
        sim_time=sim_time,
        seed=7,
        components=components if components is not None else {},
        meta=meta if meta is not None else {},
    )


def _schema(path):
    with open(path) as fh:
        return json.load(fh)["schema"]


def _node(kind, **fields):
    return {"__delta__": kind, **fields}


def _lines(node):
    """A dict node that applies ``node`` to the key ``lines``."""
    return _node("dict", set={"lines": node}, drop=[])


def _rewrite_body(path, **changes):
    """Edit a delta envelope's body and checksum it again."""
    with open(path) as fh:
        envelope = json.load(fh)
    body = json.loads(envelope["payload"])
    body.update(changes)
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    envelope["payload"] = payload
    envelope["checksum"] = hashlib.sha256(payload.encode()).hexdigest()
    with open(path, "w") as fh:
        json.dump(envelope, fh)


class TestDiffApply:
    CASES = [
        ({"a": 1}, {"a": 2}),
        ({"a": 1}, {"a": 1, "b": [1, 2]}),
        ({"a": 1, "b": 2}, {"b": 2}),
        ({"nest": {"x": [1, 2, 3]}}, {"nest": {"x": [1, 2, 3, 4]}}),
        ([1, 2, 3], [1, 2, 9, 10]),
        ([1, 2], []),
        ("x" * 100, "x" * 100 + "tail"),
        ("short", "other"),
        (1.5, "now a string"),
        (None, {"k": None}),
        ({"deep": {"list": [{"a": 1}, {"b": 2}]}}, {"deep": {"list": [{"a": 1}, {"b": 3}]}}),
    ]

    @pytest.mark.parametrize("old,new", CASES)
    def test_apply_inverts_diff(self, old, new):
        # ``_apply`` updates its base in place; the cases are shared.
        old = copy.deepcopy(old)
        delta = _diff(old, new)
        assert delta is not None
        assert _apply(old, delta) == new

    def test_equal_values_diff_to_none(self):
        for value in ({"a": [1, {"b": "c"}]}, [1, 2], "same", 3, None):
            assert _diff(value, value) is None

    def test_randomized_roundtrip(self):
        rng = random.Random(42)

        def rand_value(depth=0):
            kinds = ["int", "str", "list", "dict"] if depth < 3 else ["int", "str"]
            kind = rng.choice(kinds)
            if kind == "int":
                return rng.randrange(100)
            if kind == "str":
                return "".join(rng.choices(string.ascii_letters, k=rng.randrange(0, 80)))
            if kind == "list":
                return [rand_value(depth + 1) for _ in range(rng.randrange(0, 5))]
            return {
                f"k{i}": rand_value(depth + 1) for i in range(rng.randrange(0, 5))
            }

        for _ in range(200):
            old, new = rand_value(), rand_value()
            delta = _diff(old, new)
            assert (delta is None and old == new) or _apply(old, delta) == new

    def test_common_prefix_len_matches_naive_scan(self):
        rng = random.Random(9)
        for _ in range(300):
            base = "".join(rng.choices("ab", k=rng.randrange(0, 300)))
            other = base[: rng.randrange(0, len(base) + 1)] + "".join(
                rng.choices("abc", k=rng.randrange(0, 50))
            )
            naive = 0
            limit = min(len(base), len(other))
            while naive < limit and base[naive] == other[naive]:
                naive += 1
            assert _common_prefix_len(base, other) == naive

    def test_common_prefix_len_on_megabyte_blobs(self):
        blob = "j" * 3_000_000
        assert _common_prefix_len(blob, blob) == 3_000_000
        assert _common_prefix_len(blob, blob + "x") == 3_000_000
        assert _common_prefix_len(blob[:-1] + "q", blob) == 2_999_999
        assert _common_prefix_len("", blob) == 0


class TestWriterCadence:
    def test_first_cut_full_then_deltas_then_rebase(self, tmp_path):
        writer = DeltaCheckpointWriter(rebase_every=4)
        paths = []
        for i in range(9):
            path = str(tmp_path / f"cut{i:02d}.json")
            assert writer.write(path, _checkpoint(float(i), {"tick": {"i": i}}))
            paths.append(path)
        schemas = [_schema(p) for p in paths]
        assert schemas == [
            CHECKPOINT_SCHEMA, DELTA_SCHEMA, DELTA_SCHEMA, DELTA_SCHEMA,
            CHECKPOINT_SCHEMA, DELTA_SCHEMA, DELTA_SCHEMA, DELTA_SCHEMA,
            CHECKPOINT_SCHEMA,
        ]

    def test_every_cut_in_the_chain_is_readable(self, tmp_path):
        writer = DeltaCheckpointWriter(rebase_every=16)
        paths = []
        for i in range(6):
            path = str(tmp_path / f"cut{i:02d}.json")
            writer.write(
                path, _checkpoint(float(i), {"log": {"lines": list(range(i + 1))}})
            )
            paths.append(path)
        for i, path in enumerate(paths):
            loaded = read_checkpoint(path)
            assert loaded is not None
            assert loaded.sim_time == float(i)
            assert loaded.components == {"log": {"lines": list(range(i + 1))}}

    def test_rebase_every_zero_means_never_rebase(self, tmp_path):
        writer = DeltaCheckpointWriter(rebase_every=0)
        schemas = []
        for i in range(5):
            path = str(tmp_path / f"cut{i}.json")
            writer.write(path, _checkpoint(float(i)))
            schemas.append(_schema(path))
        assert schemas == [CHECKPOINT_SCHEMA] + [DELTA_SCHEMA] * 4

    def test_directory_change_forces_full_cut(self, tmp_path):
        writer = DeltaCheckpointWriter(rebase_every=16)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        writer.write(str(a / "c0.json"), _checkpoint(0.0))
        writer.write(str(b / "c1.json"), _checkpoint(1.0))
        assert _schema(str(b / "c1.json")) == CHECKPOINT_SCHEMA

    def test_identical_snapshots_write_an_empty_delta(self, tmp_path):
        writer = DeltaCheckpointWriter()
        snap = _checkpoint(5.0, {"k": {"v": 1}})
        writer.write(str(tmp_path / "c0.json"), snap)
        writer.write(str(tmp_path / "c1.json"), snap)
        assert _schema(str(tmp_path / "c1.json")) == DELTA_SCHEMA
        loaded = read_checkpoint(str(tmp_path / "c1.json"))
        assert loaded is not None and loaded.components == {"k": {"v": 1}}


class TestRecovery:
    def _chain(self, tmp_path, n=3):
        writer = DeltaCheckpointWriter(rebase_every=16)
        paths = []
        for i in range(n):
            path = str(tmp_path / f"cut{i}.json")
            writer.write(path, _checkpoint(float(i), {"t": {"i": i}}))
            paths.append(path)
        return paths

    def test_corrupt_delta_is_quarantined(self, tmp_path):
        paths = self._chain(tmp_path)
        with open(paths[2], "a") as fh:
            fh.write("garbage")
        assert read_checkpoint(paths[2]) is None
        assert not os.path.exists(paths[2])
        assert os.path.exists(paths[2] + ".corrupt")
        # The rest of the chain is untouched.
        assert read_checkpoint(paths[1]) is not None

    def test_missing_base_leaves_delta_intact(self, tmp_path):
        paths = self._chain(tmp_path)
        os.remove(paths[0])
        assert read_checkpoint(paths[1]) is None
        # Not quarantined: the delta file itself is fine.
        assert os.path.exists(paths[1])
        assert not os.path.exists(paths[1] + ".corrupt")

    def test_corrupt_base_poisons_dependents_but_only_base_quarantined(self, tmp_path):
        paths = self._chain(tmp_path)
        with open(paths[0], "a") as fh:
            fh.write("garbage")
        assert read_checkpoint(paths[2]) is None
        assert os.path.exists(paths[0] + ".corrupt")
        assert os.path.exists(paths[2])

    def test_non_sibling_base_is_rejected(self, tmp_path):
        paths = self._chain(tmp_path, n=2)
        _rewrite_body(paths[1], base=os.path.join("..", "evil.json"))
        assert read_checkpoint(paths[1]) is None
        assert os.path.exists(paths[1] + ".corrupt")

    # A checksummed delta whose nodes do not fit the base: each one must
    # be quarantined, never crash the reader or load a wrong history.
    # The base cut's component ``t`` is ``{"lines": [0, 1, 2]}``; each
    # case is the delta node for ``t``.
    MISFITS = {
        "dict-over-list": _lines(_node("dict", set={}, drop=[])),
        "set-not-a-dict": _node("dict", set=[["lines", 1]], drop=[]),
        "keep-past-end": _lines(_node("tail", keep=99, tail=[5])),
        "keep-negative": _lines(_node("tail", keep=-1, tail=[5])),
        "keep-not-an-int": _lines(_node("tail", keep=1.5, tail=[5])),
        "tail-type-mismatch": _lines(_node("tail", keep=1, tail="x")),
        "strtail-over-list": _lines(_node("strtail", keep=1, tail="x")),
    }

    @pytest.mark.parametrize("case", sorted(MISFITS))
    def test_misfit_delta_node_is_quarantined(self, tmp_path, case):
        writer = DeltaCheckpointWriter(rebase_every=16)
        base, delta = str(tmp_path / "c0.json"), str(tmp_path / "c1.json")
        writer.write(base, _checkpoint(0.0, {"t": {"lines": [0, 1, 2]}}))
        writer.write(delta, _checkpoint(1.0, {"t": {"lines": [0, 1, 2, 3]}}))
        components = _node("dict", set={"t": self.MISFITS[case]}, drop=[])
        tree = _node("dict", set={"components": components}, drop=[])
        _rewrite_body(delta, delta=tree)
        assert read_checkpoint(delta) is None
        assert os.path.exists(delta + ".corrupt")
        assert read_checkpoint(base).components == {"t": {"lines": [0, 1, 2]}}

    def test_failed_write_keeps_the_old_base(self, tmp_path):
        writer = DeltaCheckpointWriter(rebase_every=16)
        p0 = str(tmp_path / "c0.json")
        writer.write(p0, _checkpoint(0.0, {"t": {"i": 0}}))
        # Unserializable snapshot: write fails, base must survive.
        bad = _checkpoint(1.0, {"t": {"i": object()}})
        assert not writer.write(str(tmp_path / "c1.json"), bad)
        p2 = str(tmp_path / "c2.json")
        assert writer.write(p2, _checkpoint(2.0, {"t": {"i": 2}}))
        loaded = read_checkpoint(p2)
        assert loaded is not None and loaded.components == {"t": {"i": 2}}


def _quarantined(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".corrupt"))


def _delta_nodes(node, found):
    """Every delta node of a delta tree, outermost first."""
    found.append(node)
    if node.get("__delta__") == "dict" and isinstance(node.get("set"), dict):
        for sub in node["set"].values():
            _delta_nodes(sub, found)
    return found


#: Nodes that fit no base, whatever the base holds.
_NEVER_FITS = [
    _node("bogus"),
    _node("tail", keep=-1, tail=[]),
    _node("strtail", keep=-1, tail=""),
    _node("dict", set=[], drop=[]),
    {"no": "kind"},
    _node("dict", set={"log": [1, 2]}, drop=[]),
]

_scalars = st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=4)


@st.composite
def _payload_runs(draw):
    """Component trees of successive cuts: append-only logs and blobs that
    grow, scalars and whole subtrees that change, keys that come and go."""
    log, blob, extra = [], "b" * 40, {}
    runs = []
    for _ in range(draw(st.integers(2, 9))):
        log = log + draw(st.lists(_scalars, max_size=4))
        blob = blob + draw(st.text("ABCD+/=", max_size=30))
        if draw(st.booleans()):
            extra = dict(extra)
            extra[draw(st.sampled_from("xyz"))] = draw(
                st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=5)
            )
        if extra and draw(st.booleans()):
            gone = draw(st.sampled_from(sorted(extra)))
            extra = {k: v for k, v in extra.items() if k != gone}
        runs.append(
            {"log": {"lines": log, "blob": blob}, "extra": extra, "tick": draw(_scalars)}
        )
    return runs


@dataclass(frozen=True)
class _Reading:
    time: float
    count: int
    ok: bool
    temp_c: Optional[float]


_READINGS = codec.History(
    _Reading,
    [("time", float), ("count", int), ("ok", bool), ("temp_c", Optional[float])],
)

_rows = st.tuples(
    st.floats(width=64),
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
    st.none() | st.floats(allow_nan=False),
)


class TestChainReader:
    @settings(max_examples=60, deadline=None)
    @given(
        appends=st.lists(st.lists(_rows, max_size=8), min_size=1, max_size=8),
        rebase_every=st.sampled_from([0, 3]),
    )
    def test_packed_columns_read_back_at_every_cut(
        self, tmp_path_factory, appends, rebase_every
    ):
        """Columns of every dtype growing by 0-7 rows a cut (so through
        every length mod 3) read back, at every cut, as the arrays that
        were captured."""
        directory = str(tmp_path_factory.mktemp("columns"))
        store = _READINGS.store()
        writer = DeltaCheckpointWriter(rebase_every=rebase_every)
        cuts = []
        for i, rows in enumerate(appends):
            for row in rows:
                store.append(*row)
            path = os.path.join(directory, f"cut{i:02d}.json")
            captured = store.capture()
            assert writer.write(path, _checkpoint(float(i), {"h": captured}))
            cuts.append((path, captured))
        for path, captured in cuts:
            read = read_checkpoint(path).components["h"]
            assert read == captured
            assert _READINGS.restore(read).capture() == captured

    @settings(max_examples=300, deadline=None)
    @given(
        st.binary(max_size=12).map(lambda raw: codec.b64(raw))
        | st.text("ABab09+/=\n -", max_size=12)
    )
    def test_only_canonical_base64_is_held_as_bytes(self, text):
        try:
            expected = base64.b64decode(text, validate=True)
        except ValueError:
            expected = None
        if expected is not None and codec.b64(expected) != text:
            expected = None
        assert _decoded(text) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        runs=_payload_runs(),
        rebase_every=st.sampled_from([0, 3, 16]),
        pick=st.integers(0, 10**6),
        misfit=st.sampled_from(_NEVER_FITS),
    )
    def test_every_cut_reads_back_and_one_misfit_quarantines_only_itself(
        self, tmp_path_factory, runs, rebase_every, pick, misfit
    ):
        directory = str(tmp_path_factory.mktemp("chain"))
        writer = DeltaCheckpointWriter(rebase_every=rebase_every)
        paths = []
        for i, components in enumerate(runs):
            path = os.path.join(directory, f"cut{i:02d}.json")
            assert writer.write(path, _checkpoint(float(i), copy.deepcopy(components)))
            paths.append(path)
        for i, path in enumerate(paths):
            assert read_checkpoint(path).components == runs[i]

        deltas = [i for i, path in enumerate(paths) if _schema(path) == DELTA_SCHEMA]
        if not deltas:
            return
        bad = deltas[pick % len(deltas)]
        with open(paths[bad]) as fh:
            tree = json.loads(json.load(fh)["payload"])["delta"]
        nodes = _delta_nodes(tree, [])
        target = nodes[pick % len(nodes)]
        target.clear()
        target.update(misfit)
        _rewrite_body(paths[bad], delta=tree)

        assert read_checkpoint(paths[bad]) is None
        assert _quarantined(directory) == [os.path.basename(paths[bad]) + ".corrupt"]
        # Later cuts that rest on it are unloadable but intact; cuts past
        # the next full cut, and every earlier cut, still read back.
        rebased = [i for i in range(bad + 1, len(paths)) if _schema(paths[i]) == CHECKPOINT_SCHEMA]
        for i, path in enumerate(paths):
            if i == bad:
                continue
            loaded = read_checkpoint(path)
            if bad < i and (not rebased or i < rebased[0]):
                assert loaded is None
            else:
                assert loaded.components == runs[i]
        assert _quarantined(directory) == [os.path.basename(paths[bad]) + ".corrupt"]

    def test_deltas_naming_each_other_as_base_read_as_none(self, tmp_path):
        writer = DeltaCheckpointWriter(rebase_every=16)
        paths = [str(tmp_path / f"cut{i}.json") for i in range(3)]
        for i, path in enumerate(paths):
            writer.write(path, _checkpoint(float(i), {"t": {"i": i}}))
        _rewrite_body(paths[1], base="cut2.json")
        _rewrite_body(paths[2], base="cut1.json")
        assert read_checkpoint(paths[2]) is None
        assert read_checkpoint(paths[1]) is None
        # A cycle is not damage: nothing is quarantined.
        assert _quarantined(str(tmp_path)) == []

    def test_misfit_at_cut_three_of_five_leaves_earlier_cuts_loadable(self, tmp_path):
        writer = DeltaCheckpointWriter(rebase_every=16)
        paths = []
        for i in range(5):
            path = str(tmp_path / f"cut{i}.json")
            writer.write(path, _checkpoint(float(i), {"t": {"lines": list(range(i + 1))}}))
            paths.append(path)
        components = _node("dict", set={"t": _lines(_node("tail", keep=99, tail=[3]))}, drop=[])
        _rewrite_body(paths[3], delta=_node("dict", set={"components": components}, drop=[]))
        assert read_checkpoint(paths[4]) is None
        assert _quarantined(str(tmp_path)) == ["cut3.json.corrupt"]
        assert os.path.exists(paths[4])
        for i in range(3):
            assert read_checkpoint(paths[i]).components == {"t": {"lines": list(range(i + 1))}}

    def test_reading_a_chain_peaks_near_the_tree_it_keeps(self, tmp_path):
        """A 12-cut chain of growing packed columns, as a campaign writes
        it: resolving the last cut may not cost much more memory than the
        tree it returns (rebuilding every intermediate tree took 1.9x)."""
        history = codec.History(_Sample, [("time", float), ("value", float)])
        stores = [history.store() for _ in range(4)]
        writer = DeltaCheckpointWriter()
        rng = random.Random(5)
        path = None
        for cut in range(12):
            for store in stores:
                for _ in range(4000):
                    store.append(float(cut), rng.random())
            with writer.memo:
                components = {f"h{i}": store.capture() for i, store in enumerate(stores)}
            path = str(tmp_path / f"cut{cut:02d}.json")
            assert writer.write(path, _checkpoint(float(cut), components))
        del writer, components
        assert _schema(path) == DELTA_SCHEMA
        gc.collect()
        tracemalloc.start()
        try:
            loaded = read_checkpoint(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.components["h3"]["value"]) == 12 * 4000
        assert peak <= 1.5 * kept, (peak, kept)

    def test_writing_a_cut_allocates_for_its_new_rows(self, tmp_path):
        """Capturing and writing cut k of a chain of growing stores
        allocates for the rows added since cut k-1, not for the history:
        no column's full base64 text is built (it used to be, at 2.1 MB
        per column here)."""
        history = codec.History(_Sample, [("time", float), ("value", float)])
        stores = [history.store() for _ in range(4)]
        writer = DeltaCheckpointWriter()
        rng = random.Random(5)
        new_rows = 1000
        for cut in range(4):
            rows = 200_000 if cut == 0 else new_rows
            for store in stores:
                store.extend([float(cut)] * rows, [rng.random() for _ in range(rows)])
            gc.collect()
            tracemalloc.start()
            try:
                with writer.memo:
                    components = {f"h{i}": store.capture() for i, store in enumerate(stores)}
                path = str(tmp_path / f"cut{cut:02d}.json")
                assert writer.write(path, _checkpoint(float(cut), components))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if cut:
                assert _schema(path) == DELTA_SCHEMA
                new_bytes = len(stores) * 2 * new_rows * 8
                assert peak <= 16 * new_bytes, (cut, peak, new_bytes)
        loaded = read_checkpoint(path)
        assert loaded.components == components
