"""The per-run telemetry hub.

:class:`Telemetry` is what a campaign carries when observability is
switched on: one :class:`~repro.telemetry.metrics.MetricsRegistry` plus
one :class:`~repro.telemetry.spans.SpanTracer`.  Nothing in the stack
holds telemetry by default -- ``CampaignBuilder.with_telemetry`` opts a
run in, and every hook site guards with a single ``is None`` check, so
a telemetry-free run does zero extra work and produces byte-identical
records.

The same hub is what a :class:`~repro.runner.records.RunRecord` ships
across process boundaries, in one JSON form (:meth:`Telemetry.state_dict`)
shared with checkpoints and the record cache.  Which of its fields are
deterministic is decided here alone (:meth:`Telemetry.deterministic_dict`):
span fire counts, counters, gauges, and histograms are pure functions of
the simulation, span wall times are not, so hub equality ignores the
latter and serial and parallel sweeps of the same seeds compare equal
and merge to identical counts.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.telemetry.metrics import MetricsRegistry, escape_label_value
from repro.telemetry.spans import SpanTracer

#: Layout version of the ``--telemetry-out`` JSON file.
TELEMETRY_SCHEMA = 1


class Telemetry:
    """One run's metrics registry and span tracer, as a unit.

    Examples
    --------
    >>> tel = Telemetry()
    >>> tel.metrics.counter("demo").inc()
    >>> with tel.span("demo.work"):
    ...     pass
    >>> tel.deterministic_dict()["span_counts"]
    {'demo.work': 1}
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanTracer()

    def __repr__(self) -> str:
        return f"Telemetry(metrics={len(self.metrics)}, span_labels={len(self.spans)})"

    def __eq__(self, other: object) -> bool:
        """Equal when the deterministic parts are; wall times never count."""
        if not isinstance(other, Telemetry):
            return NotImplemented
        return self.deterministic_dict() == other.deterministic_dict()

    def deterministic_dict(self) -> Dict[str, Any]:
        """The part of the hub that is a pure function of the simulation.

        Counters, gauges, histograms, and span fire counts; the per-span
        wall seconds are left out.  Equality and
        ``RunRecord.canonical_json`` both read this.
        """
        return {
            "metrics": self.metrics.to_json_dict(),
            "span_counts": self.spans.counts(),
        }

    def span(self, label: str):
        """Time a ``with`` block under ``label`` (delegates to the tracer)."""
        return self.spans.span(label)

    def counter(self, name: str, help: str = ""):
        """Fetch-or-create a counter (delegates to the registry).

        Mirrors :meth:`span` so call sites that only count -- like the
        sweep runner's retry/timeout/eviction tallies -- don't need to
        reach through ``metrics``.  It is for writers: to read a count
        without creating it, use ``metrics.counter_value(name)``.
        """
        return self.metrics.counter(name, help)

    def merge(self, other: "Telemetry") -> None:
        """Fold another hub in (counters/histograms/spans add, gauges max)."""
        self.metrics.merge(other.metrics)
        self.spans.merge(other.spans)

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "metrics": self.metrics.to_json_dict(),
            "spans": self.spans.to_json_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.metrics = MetricsRegistry.from_json_dict(state["metrics"])
        self.spans.load_json_dict(state["spans"])

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "Telemetry":
        """A fresh hub holding :meth:`state_dict` output (a plain tracer)."""
        hub = cls()
        hub.load_state_dict(state)
        return hub

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """The ``repro run --telemetry-out`` file layout."""
        data: Dict[str, Any] = {"schema": TELEMETRY_SCHEMA}
        data.update(self.metrics.to_json_dict())
        data["spans"] = self.spans.to_json_dict()
        return data

    def to_prometheus_text(self, prefix: str = "repro_") -> str:
        """Prometheus text format: the registry plus the span families."""
        lines = [self.metrics.to_prometheus_text(prefix=prefix).rstrip("\n")]
        for label in self.spans.labels():
            stats = self.spans.stats(label)
            escaped = escape_label_value(label)
            lines.append(
                f'{prefix}span_fired_total{{label="{escaped}"}} {stats.count}'
            )
            lines.append(
                f'{prefix}span_wall_seconds_total{{label="{escaped}"}} '
                f"{stats.total_s:.9f}"
            )
        return "\n".join(line for line in lines if line) + "\n"
