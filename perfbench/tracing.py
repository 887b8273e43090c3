"""Per-layer self time for the traced benchmark run.

The tracer is a span stack kept entirely in the benchmark.  Spans come
from three public sources, none of which needs a change to ``src/``:

- wrappers :func:`install` puts around layer entry points, plus the
  benchmark's own ``with tracer.span(...)`` blocks around drive, result
  assembly, checkpoint read and restore;
- the engine: ``Simulator.on_event`` opens an ``engine.<label>`` frame
  just before a callback runs and ``Simulator.tracer.record`` closes it;
- the ``Telemetry`` hub's :class:`SpanTracer`, which this class
  replaces, so ``telemetry.span(...)`` blocks become frames and
  ``record(label, elapsed)`` calls (the fleet-scale frame phases and
  ``monitoring.collect_round``) become leaf spans.

A span's self time is its duration minus the time of the spans directly
inside it.  Record-only spans arrive after they end, so they are
treated as leaves; that holds because no wrapped entry point runs
inside a fleet-scale phase or a collection round.  The one exception is
the speed probe (``bench.probe``, see ``calibrate.py``), whose samples
can land anywhere; those are re-parented into the leaf they fell in.

Spans are aggregated per label in memory (count, total, self) and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

from repro.telemetry import Telemetry
from repro.telemetry.spans import SpanTracer

from calibrate import PROBE

#: Spans that belong to the benchmark itself, not to the program.  Their
#: time is taken out of the drive before coverage is computed.
BENCH_PREFIX = "bench."
DRIVE = "sim.drive"

#: Span label -> the per-layer metric its self time feeds.
LABEL_METRIC: Dict[str, str] = {
    DRIVE: "sim.dispatch_s",
    "campaign.run": "sim.dispatch_s",
    "engine.fleet-tick": "core.fleet_tick_s",
    "core.results": "core.results_s",
    "thermal.advance": "thermal.advance_s",
    "hardware.host_tick": "hardware.host_tick_s",
    "hardware.storage_tick": "hardware.storage_tick_s",
    "hardware.switch_tick": "hardware.switch_tick_s",
    "engine.weather-station": "climate.station_s",
    "engine.collector": "monitoring.collect_s",
    "monitoring.collect_round": "monitoring.collect_s",
    "engine.lascar": "monitoring.lascar_s",
    "engine.powermeter": "monitoring.powermeter_s",
    "engine.webcam": "monitoring.webcam_s",
    "engine.plant-tick": "plant.tick_s",
    "engine.control-tick": "control.tick_s",
    "control.observe": "control.observe_s",
    "control.apply": "control.apply_s",
    "state.capture": "state.capture_s",
    "state.write": "state.write_s",
    "state.read": "state.read_s",
    "state.restore": "state.restore_s",
    "fleetscale.weather": "fleetscale.weather_s",
    "fleetscale.plant": "fleetscale.plant_s",
    "fleetscale.thermal": "fleetscale.thermal_s",
    "fleetscale.trip": "fleetscale.trip_s",
    "fleetscale.hazards": "fleetscale.hazards_s",
    "fleetscale.workload": "fleetscale.workload_s",
    "fleetscale.observe": "fleetscale.observe_s",
}
ARCHIVER_PREFIX = "engine.archiver."


def metric_for(label: str) -> Optional[str]:
    if label.startswith(ARCHIVER_PREFIX):
        return "workload.archiver_s"
    return LABEL_METRIC.get(label)


class _Frame:
    __slots__ = ("label", "start", "child_s")

    def __init__(self, label: str, start: float) -> None:
        self.label = label
        self.start = start
        self.child_s = 0.0


class BenchTracer(SpanTracer):
    """A :class:`SpanTracer` that also keeps a span stack for self time."""

    def __init__(self) -> None:
        super().__init__()
        self._stack: List[_Frame] = [_Frame("<root>", perf_counter())]
        self.count: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self._drive_depth = 0
        self.drive_s = 0.0
        self.bench_in_drive_s = 0.0
        self.unmapped_in_drive_s = 0.0
        #: Probe samples (start, duration) since the last record-only span.
        self._probes: List[tuple] = []

    # -- stack -----------------------------------------------------------
    def push(self, label: str) -> None:
        if label == DRIVE:
            self._drive_depth += 1
        self._stack.append(_Frame(label, perf_counter()))

    def pop(self) -> None:
        frame = self._stack.pop()
        dur = perf_counter() - frame.start
        if frame.label == PROBE:
            self._probes.append((frame.start, dur))
        self._close(frame.label, dur, frame.child_s)

    def _close(self, label: str, dur: float, child_s: float) -> None:
        own = dur - child_s
        self.count[label] = self.count.get(label, 0) + 1
        self.total_s[label] = self.total_s.get(label, 0.0) + dur
        self.self_s[label] = self.self_s.get(label, 0.0) + own
        self._stack[-1].child_s += dur
        if label == DRIVE:
            self._drive_depth -= 1
            self.drive_s += dur
        elif self._drive_depth:
            if label.startswith(BENCH_PREFIX):
                self.bench_in_drive_s += dur
            elif metric_for(label) is None:
                self.unmapped_in_drive_s += own

    @contextmanager
    def span(self, label: str):
        self.push(label)
        try:
            yield
        finally:
            self.pop()

    # -- engine and hub hooks -------------------------------------------
    def on_event(self, time_s: float, label: str) -> None:
        """``Simulator.on_event``: open the frame the tracer will close."""
        self.push("engine." + (label or "unlabeled"))

    def record(self, label: str, elapsed_s: float) -> None:
        super().record(label, elapsed_s)
        if self._stack[-1].label == label and label.startswith("engine."):
            self.pop()
            return
        started = perf_counter() - elapsed_s
        inside = sum(dur for start, dur in self._probes if start >= started)
        self._probes.clear()
        self._stack[-1].child_s -= inside
        self._close(label, elapsed_s, inside)

    def attach(self, sim) -> None:
        """Route one simulator's dispatch through this tracer."""
        sim.tracer = self
        sim.on_event = self.on_event

    def telemetry(self) -> Telemetry:
        """A fresh public hub whose spans land in this tracer."""
        hub = Telemetry()
        hub.spans = self
        return hub

    # -- results -----------------------------------------------------------
    def layer_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for label, own in self.self_s.items():
            metric = metric_for(label)
            if metric is not None:
                out[metric] = out.get(metric, 0.0) + own
        return out

    def coverage(self) -> float:
        """Share of drive time (benchmark spans excluded) some layer owns."""
        drive = self.drive_s - self.bench_in_drive_s
        if drive <= 0.0:
            return 0.0
        return (drive - self.unmapped_in_drive_s) / drive

    def table(self) -> Dict[str, Dict[str, float]]:
        return {
            label: {
                "count": self.count[label],
                "total_s": self.total_s[label],
                "self_s": self.self_s[label],
                "metric": metric_for(label),
            }
            for label in sorted(self.count)
        }


def _wrap(cls, name: str, label: str, tracer: BenchTracer) -> None:
    original = cls.__dict__[name]

    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer.push(label)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.pop()

    setattr(cls, name, traced)


def _wrapped_targets():
    from repro.control.plane import ControlPlane
    from repro.core.builder import Campaign
    from repro.hardware.host import Host
    from repro.hardware.storage import StorageSubsystem
    from repro.hardware.switch import NetworkSwitch
    from repro.state.checkpoint import DeltaCheckpointWriter
    from repro.thermal.enclosure import Enclosure

    return (
        (Enclosure, "advance", "thermal.advance"),
        (Host, "tick", "hardware.host_tick"),
        (Host, "tick_from_columns", "hardware.host_tick"),
        (StorageSubsystem, "tick", "hardware.storage_tick"),
        (NetworkSwitch, "tick", "hardware.switch_tick"),
        (ControlPlane, "observe", "control.observe"),
        (ControlPlane, "apply", "control.apply"),
        (Campaign, "checkpoint", "state.capture"),
        (DeltaCheckpointWriter, "write", "state.write"),
    )


def install(tracer: BenchTracer) -> None:
    """Wrap every layer entry point in :func:`_wrapped_targets`.

    Call once, in the traced process only: the untraced run that gives
    the end-to-end metrics never loads these wrappers.
    """
    for cls, name, label in _wrapped_targets():
        _wrap(cls, name, label, tracer)
