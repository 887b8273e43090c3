"""The benchmark's traced run can still find every method it wraps.

``perfbench/tracing.py`` times each layer by replacing named methods,
looked up with ``cls.__dict__[name]``.  Renaming or deleting one of them
(or moving it to a base class) makes every ``perfbench/run.py --trace 1``
run fail with ``KeyError``.  This test imports the benchmark's target
list as-is and checks each name is defined on its class.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _wrapped_targets():
    path = os.path.abspath(PERFBENCH)
    sys.path.insert(0, path)
    try:
        import tracing

        return tracing._wrapped_targets()
    finally:
        sys.path.remove(path)


def test_every_wrapped_method_is_defined_on_its_class():
    targets = _wrapped_targets()
    assert targets
    for cls, name, _ in targets:
        assert name in cls.__dict__, f"{cls.__name__}.{name}"
