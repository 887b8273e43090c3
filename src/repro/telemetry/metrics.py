"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The paper's contribution is a measurement campaign; this module gives the
reproduction its own measurement plane.  Three constraints shape it:

- **deterministic** -- metrics only ever hold values derived from the
  simulation itself (event tallies, hosts per round), never wall-clock
  time, so two runs of the same (config, seed, horizon) produce equal
  registries.  Wall-time lives in :mod:`repro.telemetry.spans` and is
  excluded from every equality and canonical-JSON path;
- **picklable** -- a registry crosses the
  :class:`~concurrent.futures.ProcessPoolExecutor` boundary inside a
  :class:`~repro.runner.records.RunRecord`, so everything here is plain
  attributes, no lambdas or open handles;
- **mergeable** -- sweep workers each fill their own registry;
  :meth:`MetricsRegistry.merge` folds them into one fleet-wide view
  (counters and histograms add, gauges keep the maximum).

Exposition comes in two flavours: :meth:`MetricsRegistry.to_json_dict`
for machine consumption (the ``repro run --telemetry-out`` file) and
:meth:`MetricsRegistry.to_prometheus_text` for anything that scrapes
the Prometheus text format.
"""

from __future__ import annotations

import bisect
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Default histogram upper bounds, sized for "things per collection round".
DEFAULT_BUCKETS: Tuple[float, ...] = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _object(value: Any, what: str) -> Dict[str, Any]:
    """``value`` if it is a JSON object, else :class:`ValueError`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what}: expected an object, got {type(value).__name__}")
    return value


def _prom_name(name: str) -> str:
    """Sanitise a dotted metric name into a Prometheus-legal one."""
    return _PROM_NAME_RE.sub("_", name)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format.

    The official rules: backslash, double-quote, and line-feed become
    ``\\\\``, ``\\"``, and ``\\n`` respectively (backslash first, so the
    other escapes are not themselves re-escaped).
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def escape_help_text(text: str) -> str:
    """Escape a ``# HELP`` line's text (backslash and line feed only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc({amount}))")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time float (queue depth, events fired at end of run)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram: cumulative-style counts plus a running sum.

    ``bounds`` are ascending upper bounds; observations land in the first
    bucket whose bound is >= the value, or the implicit +Inf bucket.
    ``bucket_counts`` has ``len(bounds) + 1`` entries (the last is +Inf).
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name!r} bounds must be strictly ascending")
        self.name = name
        self.help = help
        self.bounds = ordered
        self.bucket_counts: List[int] = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, sum={self.sum:g})"


class MetricsRegistry:
    """Get-or-create store for the three metric kinds.

    Examples
    --------
    >>> reg = MetricsRegistry()
    >>> reg.counter("monitoring.rounds").inc()
    >>> reg.counter_value("monitoring.rounds")
    1
    >>> reg.counter_value("monitoring.retries")
    0
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )

    # ------------------------------------------------------------------
    # Get-or-create
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        """The counter called ``name``, created on first use."""
        self._check_free(name, self._counters)
        return self._counters.setdefault(name, Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge called ``name``, created on first use."""
        self._check_free(name, self._gauges)
        return self._gauges.setdefault(name, Gauge(name, help))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> Histogram:
        """The histogram called ``name``, created on first use.

        ``bounds`` only matter at creation; a later caller with different
        bounds gets the original histogram back unchanged.
        """
        self._check_free(name, self._histograms)
        return self._histograms.setdefault(name, Histogram(name, bounds, help))

    def _check_free(self, name: str, own: Dict[str, Any]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(f"metric {name!r} already registered as another kind")

    # ------------------------------------------------------------------
    # Introspection (sorted, so every export is deterministic)
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> int:
        """The value of the counter called ``name``, 0 when it is absent.

        A read for tests and reports: unlike :meth:`counter`, it never
        creates the counter, so reading leaves the registry (and every
        equality and canonical JSON built on it) as it was.
        """
        counter = self._counters.get(name)
        return 0 if counter is None else counter.value

    def counters(self) -> Iterator[Counter]:
        return iter(sorted(self._counters.values(), key=lambda c: c.name))

    def gauges(self) -> Iterator[Gauge]:
        return iter(sorted(self._gauges.values(), key=lambda g: g.name))

    def histograms(self) -> Iterator[Histogram]:
        return iter(sorted(self._histograms.values(), key=lambda h: h.name))

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry in place.

        Counters and histograms add; gauges keep the maximum (a sweep's
        merged gauge answers "how big did this ever get").  Histograms
        with mismatching bounds raise rather than silently mis-bucket.
        """
        for counter in other.counters():
            self.counter(counter.name, counter.help).inc(counter.value)
        for gauge in other.gauges():
            known = gauge.name in self._gauges
            mine = self.gauge(gauge.name, gauge.help)
            mine.set(max(mine.value, gauge.value) if known else gauge.value)
        for hist in other.histograms():
            mine = self.histogram(hist.name, hist.bounds, hist.help)
            if mine.bounds != hist.bounds:
                raise ValueError(
                    f"cannot merge histogram {hist.name!r}: "
                    f"bounds {mine.bounds} != {hist.bounds}"
                )
            for index, count in enumerate(hist.bucket_counts):
                mine.bucket_counts[index] += count
            mine.sum += hist.sum
            mine.count += hist.count

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-data form (stable ordering via sorted keys)."""
        return {
            "counters": {c.name: c.value for c in self.counters()},
            "gauges": {g.name: g.value for g in self.gauges()},
            "histograms": {
                h.name: {
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for h in self.histograms()
            },
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_json_dict` output.

        Input of the wrong shape (a list where an object belongs, a
        bucket count per bound missing) raises :class:`ValueError`, so a
        cache reader can treat it like any other malformed entry.
        """
        registry = cls()
        data = _object(data, "metrics")
        for name, value in _object(data.get("counters", {}), "counters").items():
            registry.counter(name).inc(int(value))
        for name, value in _object(data.get("gauges", {}), "gauges").items():
            registry.gauge(name).set(float(value))
        for name, payload in _object(data.get("histograms", {}), "histograms").items():
            payload = _object(payload, f"histogram {name!r}")
            hist = registry.histogram(name, bounds=payload["bounds"])
            counts = [int(c) for c in payload["bucket_counts"]]
            if len(counts) != len(hist.bucket_counts):
                raise ValueError(
                    f"histogram {name!r}: {len(counts)} bucket counts for "
                    f"{len(hist.bounds)} bounds"
                )
            hist.bucket_counts = counts
            hist.sum = float(payload["sum"])
            hist.count = int(payload["count"])
        return registry

    def to_prometheus_text(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition format, one family per metric."""
        lines: List[str] = []
        for counter in self.counters():
            name = prefix + _prom_name(counter.name) + "_total"
            if counter.help:
                lines.append(f"# HELP {name} {escape_help_text(counter.help)}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {counter.value}")
        for gauge in self.gauges():
            name = prefix + _prom_name(gauge.name)
            if gauge.help:
                lines.append(f"# HELP {name} {escape_help_text(gauge.help)}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {gauge.value:g}")
        for hist in self.histograms():
            name = prefix + _prom_name(hist.name)
            if hist.help:
                lines.append(f"# HELP {name} {escape_help_text(hist.help)}")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.bucket_counts):
                cumulative += count
                lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
            cumulative += hist.bucket_counts[-1]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{name}_sum {hist.sum:g}")
            lines.append(f"{name}_count {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")
