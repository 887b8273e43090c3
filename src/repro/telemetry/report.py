"""Terminal rendering of a run's telemetry: the ``repro telemetry`` verb.

The report answers the two questions an operator asks of a slow or
surprising run: *which event labels dominate the engine's queue* (hot
labels, by fire count) and *where does wall time actually go* (slowest
spans, by worst single duration -- the "slowest round" view for the
monitoring plane).  Counters, gauges, and histograms follow so the
deterministic side of the registry is visible in the same place.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.telemetry.hub import Telemetry

#: Layout version of :func:`report_json` output.
REPORT_SCHEMA = 1


def _format_seconds(seconds: float) -> str:
    """Human duration: us / ms / s picked by magnitude."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def render_report(telemetry: Telemetry, top: int = 10) -> str:
    """Multi-section text report over one run's telemetry."""
    lines: List[str] = []

    hottest = telemetry.spans.hottest(top)
    lines.append(f"Hot labels (top {len(hottest)} by fires)")
    if hottest:
        width = max(len(s.label) for s in hottest)
        for stats in hottest:
            lines.append(
                f"  {stats.label:<{width}}  {stats.count:>8} fires  "
                f"total {_format_seconds(stats.total_s):>9}  "
                f"mean {_format_seconds(stats.mean_s):>9}"
            )
    else:
        lines.append("  (no spans recorded)")

    slowest = telemetry.spans.slowest(top)
    lines.append("")
    lines.append(f"Slowest spans (top {len(slowest)} by worst single duration)")
    if slowest:
        width = max(len(s.label) for s in slowest)
        for stats in slowest:
            lines.append(
                f"  {stats.label:<{width}}  max {_format_seconds(stats.max_s):>9}  "
                f"mean {_format_seconds(stats.mean_s):>9}  ({stats.count} fires)"
            )
    else:
        lines.append("  (no spans recorded)")

    counters = list(telemetry.metrics.counters())
    if counters:
        lines.append("")
        lines.append("Counters")
        width = max(len(c.name) for c in counters)
        for counter in counters:
            lines.append(f"  {counter.name:<{width}}  {counter.value}")

    gauges = list(telemetry.metrics.gauges())
    if gauges:
        lines.append("")
        lines.append("Gauges")
        width = max(len(g.name) for g in gauges)
        for gauge in gauges:
            lines.append(f"  {gauge.name:<{width}}  {gauge.value:g}")

    histograms = list(telemetry.metrics.histograms())
    if histograms:
        lines.append("")
        lines.append("Histograms")
        for hist in histograms:
            lines.append(f"  {hist.name}  (n={hist.count}, sum={hist.sum:g})")
            for bound, count in zip(hist.bounds, hist.bucket_counts):
                if count:
                    lines.append(f"    <= {bound:g}: {count}")
            if hist.bucket_counts[-1]:
                lines.append(f"    > {hist.bounds[-1]:g}: {hist.bucket_counts[-1]}")

    return "\n".join(lines)


def report_json(telemetry: Telemetry, top: int = 10) -> Dict[str, Any]:
    """Machine-readable twin of :func:`render_report`.

    Same sections, same ordering, plain data: the ``repro telemetry
    --json`` payload CI and the future service plane consume without
    scraping the text report.  Wall-second fields ride along for
    operators; anything comparing reports across runs should stick to
    the count fields (the deterministic part).
    """
    return {
        "schema": REPORT_SCHEMA,
        "hot_labels": [
            {
                "label": stats.label,
                "count": stats.count,
                "total_s": stats.total_s,
                "mean_s": stats.mean_s,
            }
            for stats in telemetry.spans.hottest(top)
        ],
        "slowest_spans": [
            {
                "label": stats.label,
                "max_s": stats.max_s,
                "mean_s": stats.mean_s,
                "count": stats.count,
            }
            for stats in telemetry.spans.slowest(top)
        ],
        **telemetry.metrics.to_json_dict(),
    }
