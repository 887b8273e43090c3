"""Span tracing: where wall time goes, keyed by label.

A :class:`SpanTracer` aggregates -- it does not keep one record per span
(a full campaign fires hundreds of thousands of engine events), it keeps
one :class:`SpanStats` per label: fire count, total/min/max wall seconds.
That is exactly what the ``repro telemetry`` hot-label report needs and
it keeps tracing O(1) memory.

Wall time is inherently nondeterministic, so span *durations* never
participate in record equality or canonical JSON -- only the per-label
fire *counts* do (those are a pure function of the simulation).  See
:mod:`repro.telemetry.hub` for how the hub enforces that split.

:class:`Stopwatch` is the shared elapsed-time helper the runner uses;
``runner.local`` and ``runner.pool`` previously each hand-rolled the
same ``perf_counter`` bookkeeping.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple


class SpanStats:
    """Aggregate timing for one span label."""

    __slots__ = ("label", "count", "total_s", "min_s", "max_s")

    def __init__(self, label: str) -> None:
        self.label = label
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def record(self, elapsed_s: float) -> None:
        """Fold one measured duration in."""
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    @property
    def mean_s(self) -> float:
        """Average duration (0.0 before the first record)."""
        return self.total_s / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (
            f"SpanStats({self.label!r}, n={self.count}, "
            f"total={self.total_s * 1e3:.2f}ms, max={self.max_s * 1e3:.3f}ms)"
        )


class SpanTracer:
    """Per-label span aggregation.

    Examples
    --------
    >>> tracer = SpanTracer()
    >>> with tracer.span("collect"):
    ...     pass
    >>> tracer.stats("collect").count
    1
    """

    def __init__(self) -> None:
        self._spans: Dict[str, SpanStats] = {}

    def __repr__(self) -> str:
        fired = sum(s.count for s in self._spans.values())
        return f"SpanTracer(labels={len(self._spans)}, fired={fired})"

    def record(self, label: str, elapsed_s: float) -> None:
        """Record one finished span (the engine's fast path calls this)."""
        stats = self._spans.get(label)
        if stats is None:
            stats = self._spans[label] = SpanStats(label)
        stats.record(elapsed_s)

    @contextmanager
    def span(self, label: str) -> Iterator[None]:
        """Time a ``with`` block under ``label``."""
        started = perf_counter()
        try:
            yield
        finally:
            self.record(label, perf_counter() - started)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self, label: str) -> Optional[SpanStats]:
        """The aggregate for one label, or ``None`` if it never fired."""
        return self._spans.get(label)

    def labels(self) -> List[str]:
        """All labels, sorted."""
        return sorted(self._spans)

    def counts(self) -> Dict[str, int]:
        """Deterministic fire tally per label, sorted by label."""
        return {label: self._spans[label].count for label in sorted(self._spans)}

    def hottest(self, top: int = 10) -> List[SpanStats]:
        """Labels by fire count, descending (label breaks ties)."""
        ordered = sorted(self._spans.values(), key=lambda s: (-s.count, s.label))
        return ordered[:top]

    def slowest(self, top: int = 10) -> List[SpanStats]:
        """Labels by worst single duration, descending."""
        ordered = sorted(self._spans.values(), key=lambda s: (-s.max_s, s.label))
        return ordered[:top]

    def __len__(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "SpanTracer") -> None:
        """Fold another tracer's aggregates into this one, in place."""
        for label in other.labels():
            theirs = other._spans[label]
            stats = self._spans.get(label)
            if stats is None:
                stats = self._spans[label] = SpanStats(label)
            stats.count += theirs.count
            stats.total_s += theirs.total_s
            if theirs.min_s < stats.min_s:
                stats.min_s = theirs.min_s
            if theirs.max_s > stats.max_s:
                stats.max_s = theirs.max_s

    def to_json_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-data form, sorted by label."""
        return {
            label: {
                "count": stats.count,
                "total_s": stats.total_s,
                "min_s": stats.min_s if stats.count else 0.0,
                "max_s": stats.max_s,
            }
            for label, stats in sorted(self._spans.items())
        }

    def load_json_dict(self, data: Dict[str, Dict[str, float]]) -> None:
        """Replace the aggregates with :meth:`to_json_dict` output.

        Fire counts are the deterministic part; the wall-second fields
        restore as recorded (a zero-count label's ``min_s`` comes back as
        +inf, matching a fresh :class:`SpanStats`).  A non-object where
        the table or a label's entry belongs raises :class:`ValueError`.
        """
        if not isinstance(data, dict) or not all(
            isinstance(payload, dict) for payload in data.values()
        ):
            raise ValueError("spans: expected an object of per-label objects")
        self._spans = {}
        for label, payload in data.items():
            stats = SpanStats(label)
            stats.count = int(payload["count"])
            stats.total_s = float(payload["total_s"])
            stats.min_s = float(payload["min_s"]) if stats.count else float("inf")
            stats.max_s = float(payload["max_s"])
            self._spans[label] = stats


class Stopwatch:
    """Context-manager elapsed-time helper.

    Examples
    --------
    >>> with Stopwatch() as watch:
    ...     pass
    >>> watch.elapsed_s >= 0.0
    True
    """

    __slots__ = ("elapsed_s", "_started")

    def __init__(self) -> None:
        self.elapsed_s = 0.0
        self._started: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._started is not None:
            self.elapsed_s = perf_counter() - self._started
            self._started = None
