"""The benchmark's traced run can still find every method it wraps.

``perfbench/tracing.py`` times each layer by replacing named methods,
looked up with ``cls.__dict__[name]``.  Renaming or deleting one of them
(or moving it to a base class) makes every ``perfbench/run.py --trace 1``
run fail with ``KeyError``; a faithful path that stops calling one of
them leaves its layer's traced time at zero without any error.  These
tests import the benchmark's target list as-is, check each name is
defined on its class, and check the fleet tick of a short faithful run
enters every hardware and thermal entry point.
"""

import datetime as dt
import os
import sys

from repro.core.builder import CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.core.deployment import Fleet

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


def test_a_faithful_run_enters_every_wrapped_hardware_and_thermal_method(monkeypatch):
    # Count only entries made from the fleet tick, so that a call from the
    # prototype weekend cannot hide a tick that stopped calling a method.
    ticking = []
    fleet_tick = Fleet._tick

    def counted_tick(self):
        ticking.append(self)
        try:
            fleet_tick(self)
        finally:
            ticking.pop()

    monkeypatch.setattr(Fleet, "_tick", counted_tick)
    entered = {}
    for cls, name, label in _wrapped_targets():
        if not label.startswith(("hardware.", "thermal.")):
            continue
        key = f"{cls.__name__}.{name}"
        entered[key] = 0

        def counted(*args, _original=cls.__dict__[name], _key=key, **kwargs):
            if ticking:
                entered[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    assert entered
    config = ExperimentConfig(seed=7)
    CampaignBuilder(config).build().run(until=config.test_start + dt.timedelta(days=2))
    assert all(entered.values()), entered
