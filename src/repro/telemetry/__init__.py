"""Telemetry: the reproduction's own measurement plane.

The paper is a measurement campaign; this package lets the reproduction
measure *itself* the same way -- metrics, span traces, and structured
run logs, threaded through the engine, the monitoring host, and the
sweep runner:

- :mod:`repro.telemetry.metrics` -- counters, gauges, fixed-bucket
  histograms; deterministic, picklable, mergeable; Prometheus-text and
  JSON exposition;
- :mod:`repro.telemetry.spans` -- per-label wall-time aggregation (the
  engine wraps every event callback; the collector wraps every round)
  plus the shared :class:`~repro.telemetry.spans.Stopwatch`;
- :mod:`repro.telemetry.hub` -- :class:`Telemetry` (one run's registry +
  tracer), which run records also carry across process boundaries, in
  the one ``state_dict`` JSON form checkpoints and the record cache
  share;
- :mod:`repro.telemetry.runlog` -- a JSONL
  :class:`~repro.sim.events.EventBus` sink, one line per campaign event;
- :mod:`repro.telemetry.report` -- the ``repro telemetry`` hot-label /
  slowest-span terminal report and its ``--json`` twin;
- :mod:`repro.telemetry.timeseries` -- the fleet observatory's
  bounded-memory columnar :class:`SeriesRecorder` (per-pod ring buffers
  with 2:1 downsampling, snapshot-safe);
- :mod:`repro.telemetry.progress` -- live JSONL heartbeats
  (:class:`ProgressMeter` for runs, :class:`SweepProgress` for sweeps).

Telemetry is strictly opt-in (``CampaignBuilder.with_telemetry``): a run
built without it takes a single ``is None`` branch per hook site and
produces byte-identical results.
"""

from repro.telemetry.hub import TELEMETRY_SCHEMA, Telemetry
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.progress import PROGRESS_SCHEMA, ProgressMeter, SweepProgress
from repro.telemetry.runlog import JsonlRunLog
from repro.telemetry.spans import SpanStats, SpanTracer, Stopwatch
from repro.telemetry.timeseries import SeriesRecorder

__all__ = [
    "PROGRESS_SCHEMA",
    "TELEMETRY_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlRunLog",
    "MetricsRegistry",
    "ProgressMeter",
    "SeriesRecorder",
    "SpanStats",
    "SpanTracer",
    "Stopwatch",
    "SweepProgress",
    "Telemetry",
]
