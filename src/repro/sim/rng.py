"""Named, independent random streams.

Every stochastic element of the reproduction (weather noise, fault draws,
workload fuzz, instrument error) pulls from its own named stream, so that

- the whole experiment is reproducible from one master seed, and
- adding draws to one subsystem does not perturb any other subsystem
  (no "seed coupling" between, say, the weather and the fault injector).

Streams are derived with :class:`numpy.random.SeedSequence` keyed by a
stable hash of the stream name, so stream identity depends only on the
``(master seed, name)`` pair, never on creation order.

A stream drawn mostly by scalar ``random()`` calls -- the per-tick hazard
coins, the page-op fault draws -- can be *served* instead
(:meth:`RngStreams.uniforms`): its draws come from a small block the
generator fills in place, which is the same sequence of values, and a
snapshot reports the position of the last draw served, so checkpoints do
not change.  A rare draw of another kind gives the served double back
and takes the generator at that position (:meth:`Uniforms.generator`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.state.protocol import StateError, check_version

_STATE_VERSION = 1

#: Draws a served stream fetches at once (2 KB of float64).
_BLOCK = 256


def _name_key(name: str) -> int:
    """Stable 64-bit integer key for a stream name.

    Python's builtin ``hash`` is salted per-process for strings, so a
    cryptographic digest is used instead.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """Factory of named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    master_seed:
        Seed for the whole family.  Two :class:`RngStreams` built with the
        same seed produce identical streams for identical names.

    Examples
    --------
    >>> streams = RngStreams(7)
    >>> weather = streams.stream("climate.noise")
    >>> faults = streams.stream("hardware.faults")
    >>> weather is streams.stream("climate.noise")
    True
    """

    def __init__(self, master_seed: int) -> None:
        if not isinstance(master_seed, (int, np.integer)):
            raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
        self.master_seed = int(master_seed)
        self._cache: Dict[str, np.random.Generator] = {}
        self._served: Dict[str, "Uniforms"] = {}
        #: Snapshot positions of streams not created yet; the stream takes
        #: its position when it is created, raw or served.
        self._pending: Dict[str, Dict[str, Any]] = {}
        self._children: Dict[str, "RngStreams"] = {}

    def __repr__(self) -> str:
        names = sorted([*self._cache, *self._served])
        return f"RngStreams(master_seed={self.master_seed}, streams={names})"

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always returns the same generator object, so a
        subsystem may re-request its stream instead of threading it through
        call signatures.  A name already served by :meth:`uniforms` is
        refused: the generator runs ahead of the draws served from it.
        """
        generator = self._cache.get(name)
        if generator is None:
            if name in self._served:
                raise ValueError(f"stream {name!r} is served by uniforms()")
            generator = self._new_generator(name)
            self._cache[name] = generator
        return generator

    def uniforms(self, name: str) -> "Uniforms":
        """Return the block-served uniforms for ``name``, creating them on
        first use.

        For a stream drawn mostly by scalar ``random()`` calls: the values
        are exactly those :meth:`stream` would give, at a fraction of the
        per-call cost.  A name already handed out by :meth:`stream` is
        refused, so the two never interleave draws on one stream; other
        draws go through :meth:`Uniforms.generator`.
        """
        served = self._served.get(name)
        if served is None:
            if name in self._cache:
                raise ValueError(f"stream {name!r} is already a raw generator")
            served = Uniforms(self._new_generator(name))
            self._served[name] = served
        return served

    def _new_generator(self, name: str) -> np.random.Generator:
        if not name:
            raise ValueError("stream name must be a non-empty string")
        seq = np.random.SeedSequence([self.master_seed, _name_key(name)])
        generator = np.random.default_rng(seq)
        pending = self._pending.pop(name, None)
        if pending is not None:
            generator.bit_generator.state = pending
        return generator

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child family, e.g. one per host.

        ``streams.spawn("host.03")`` gives an independent family whose
        streams never collide with the parent's or with other children's.
        The same name always returns the same child object, so child
        stream positions are part of this family's snapshot.
        """
        child = self._children.get(name)
        if child is None:
            child = RngStreams(_mix(self.master_seed, _name_key(name)))
            self._children[name] = child
        return child

    def fork_seed(self, name: str) -> int:
        """A derived scalar seed for code that wants its own RNG machinery."""
        return _mix(self.master_seed, _name_key(name))

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Positions of every stream created so far, children included.

        A PCG64 ``bit_generator.state`` is a plain dict of ints and
        strings, so the whole family snapshot is JSON-serialisable.  A
        served stream reports the position after its last served draw,
        the one a raw generator making the same draws would be at.
        """
        states = dict(self._pending)
        for name, gen in self._cache.items():
            states[name] = gen.bit_generator.state
        for name, served in self._served.items():
            states[name] = served.position()
        return {
            "version": _STATE_VERSION,
            "master_seed": self.master_seed,
            "streams": {
                name: _encode_bitgen_state(state)
                for name, state in sorted(states.items())
            },
            "children": {
                name: child.state_dict()
                for name, child in sorted(self._children.items())
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Seek every named stream to its recorded position.

        A stream the snapshot names but this family has not created yet
        takes its position when it is created; streams created since
        construction but absent from the snapshot keep their fresh
        positions (they had drawn nothing when the snapshot was taken).
        Restore order therefore does not matter as long as this runs
        *after* any reconstruction-time draws.
        """
        check_version("rng", state, _STATE_VERSION)
        if int(state["master_seed"]) != self.master_seed:
            raise StateError(
                f"rng: snapshot was taken under master seed "
                f"{state['master_seed']}, this family uses {self.master_seed}"
            )
        for name, bitgen_state in state["streams"].items():
            decoded = _decode_bitgen_state(bitgen_state)
            if name in self._served:
                self._served[name].seek(decoded)
            elif name in self._cache:
                self._cache[name].bit_generator.state = decoded
            else:
                self._pending[name] = decoded
        for name, child_state in state["children"].items():
            self.spawn(name).load_state_dict(child_state)


class Uniforms:
    """Scalar uniform draws of one stream, served from an in-place block.

    :meth:`random` returns the values ``generator.random()`` would, one
    per call: ``Generator.random(out=)`` fills the block with the next
    draws of the stream, and each served value is read back through a
    ``memoryview`` as a Python float.  The generator therefore runs up to
    a block ahead of the draws served; :meth:`position` rewinds that
    exactly, because one PCG64 double is one step of the generator and
    ``PCG64.advance(k)`` steps ``k`` draws from the state the block
    started at.  A double leaves PCG64's buffered half-word
    (``has_uint32``/``uinteger``, filled by 32-bit draws such as a small
    ``integers`` range) alone, so the rewound state carries the block
    start's; ``advance`` itself clears them.
    """

    __slots__ = ("_generator", "_block", "_view", "_next", "_start")

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator
        self._block = np.empty(_BLOCK)
        self._view = memoryview(self._block)
        #: Index of the next unserved draw; ``_BLOCK`` when none is held.
        self._next = _BLOCK
        #: Generator state before the block was filled (``None`` when no
        #: draw is held).
        self._start: Optional[Dict[str, Any]] = None

    def random(self) -> float:
        """The stream's next uniform draw on ``[0, 1)``."""
        i = self._next
        if i == _BLOCK:
            self._start = self._generator.bit_generator.state
            self._generator.random(out=self._block)
            i = 0
        self._next = i + 1
        return self._view[i]

    def position(self) -> Dict[str, Any]:
        """The generator state just after the last draw served."""
        if self._start is None:
            return self._generator.bit_generator.state
        start = self._start
        rewound = np.random.PCG64(0)
        rewound.state = start
        rewound.advance(self._next)
        state = rewound.state
        state["has_uint32"] = start["has_uint32"]
        state["uinteger"] = start["uinteger"]
        return state

    def give_back(self) -> None:
        """Un-serve the last draw: the next :meth:`random` returns it again.

        Valid only right after a :meth:`random` call.
        """
        self._next -= 1

    def generator(self) -> np.random.Generator:
        """The generator, set just after the last draw served.

        Drops the buffered block, so draws made on the generator directly
        (a ``binomial``, an ``integers``) follow the served ones in the
        stream, and the next :meth:`random` follows them.
        """
        if self._start is not None:
            self.seek(self.position())
        return self._generator

    def seek(self, state: Dict[str, Any]) -> None:
        """Set the stream to ``state`` and drop every buffered draw."""
        self._generator.bit_generator.state = state
        self._next = _BLOCK
        self._start = None


#: Anything a hazard coin is drawn from: a raw stream or a served one.
UniformSource = Union["np.random.Generator", Uniforms]


def _mix(seed: int, key: int) -> int:
    """Combine a seed and a name key into a new 63-bit seed."""
    digest = hashlib.sha256(f"{seed}:{key}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _encode_bitgen_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """A PCG64 state dict with its 128-bit ints rendered as strings.

    Python's ``json`` would round-trip the big ints natively, but decimal
    strings survive any JSON implementation and make the checkpoint
    self-describing.
    """
    inner = state["state"]
    return {
        "bit_generator": state["bit_generator"],
        "state": {"state": str(inner["state"]), "inc": str(inner["inc"])},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def _decode_bitgen_state(data: Dict[str, Any]) -> Dict[str, Any]:
    inner = data["state"]
    return {
        "bit_generator": data["bit_generator"],
        "state": {"state": int(inner["state"]), "inc": int(inner["inc"])},
        "has_uint32": int(data["has_uint32"]),
        "uinteger": int(data["uinteger"]),
    }
