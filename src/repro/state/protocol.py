"""The :class:`Snapshottable` protocol and the errors the plane raises.

A component is snapshottable when it can externalise every value that
changes during a run into a plain dict and later restore a freshly
constructed instance from it.  The protocol is structural
(:func:`typing.runtime_checkable`): components do not import this
module, they simply grow the two methods.

Rules every implementation follows:

- the dict carries a ``"version"`` key; ``load_state_dict`` raises
  :class:`StateError` on a version it does not understand;
- the dict is JSON-serialisable and picklable: plain scalars,
  strings, lists, dicts, plus the packed-array blobs from
  :mod:`repro.state.codec`;
- object references are stored by stable identity (host id, enclosure
  name, switch name, engine task id), never by pickling the object --
  the restoring orchestrator resolves them against the reconstructed
  campaign;
- ``load_state_dict`` assumes a *freshly constructed* component (the
  restore-by-reconstruction contract) and overwrites, never merges;
- ``load_state_dict`` parses the whole blob into locals inside
  :func:`parsing` and assigns only after it, so a malformed blob raises
  :class:`StateError` and changes nothing
  (``tests/state/test_malformed_blobs.py`` holds each loader it covers
  to this).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Protocol, runtime_checkable


class StateError(RuntimeError):
    """A component cannot be snapshotted or a state dict cannot be loaded.

    Raised, for example, when the simulator's queue still holds raw
    closure callbacks (only key-registered work serialises), or when a
    state dict's ``version`` is newer than the running code.
    """


def check_version(component: str, state: Dict[str, Any], expected: int) -> None:
    """Raise :class:`StateError` unless ``state`` carries ``expected``."""
    version = state.get("version")
    if version != expected:
        raise StateError(
            f"{component}: cannot load state version {version!r} "
            f"(this build reads version {expected})"
        )


@contextmanager
def parsing(component: str) -> Iterator[None]:
    """Parse a state blob: any lookup or conversion error in the block
    becomes one :class:`StateError`.

    Loaders parse the whole blob into locals inside the block and assign
    only after it, so a malformed blob changes nothing.
    """
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise StateError(f"{component}: malformed state ({exc!r})") from None


@runtime_checkable
class Snapshottable(Protocol):
    """Anything whose mutable state round-trips through a plain dict."""

    def state_dict(self) -> Dict[str, Any]:
        """A versioned, JSON-serialisable snapshot of all mutable state."""
        ...

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a freshly constructed instance to ``state``."""
        ...
