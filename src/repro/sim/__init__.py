"""Discrete-event simulation substrate.

Everything in the reproduction runs on this small, dependency-free engine:

- :class:`repro.sim.clock.SimClock` maps simulated seconds to calendar time,
- :class:`repro.sim.rng.RngStreams` hands out named, independent random
  streams derived from one master seed,
- :class:`repro.sim.engine.Simulator` is the event loop,
- :class:`repro.sim.events.EventBus` is the typed campaign event bus
  subsystems publish structured events on.
"""

from repro.sim.clock import DAY, HOUR, MINUTE, SECOND, WEEK, SimClock
from repro.sim.engine import EventHandle, Simulator
from repro.sim.events import Event, EventBus, EventRecorder
from repro.sim.rng import RngStreams

__all__ = [
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "SimClock",
    "Simulator",
    "EventHandle",
    "Event",
    "EventBus",
    "EventRecorder",
    "RngStreams",
]
