"""Empirical heat-budget analysis: recovering the tent's physics from data.

The paper names four factors for the tent's internal temperature --
outside air, sun and wind, equipment power, and flap configuration -- but
never quantifies the envelope.  Given the reproduction's telemetry (the
Lascar's inside series, the station's outside series, the Technoline's
power readings), the effective envelope conductance in each modification
era can be *estimated* the way the authors could have::

    UA_era  =  median( P_it / (T_in - T_out) )       [W/K]

over the era's co-sampled instants with a meaningful gap.  For synthetic
data this is also a strong identifiability check: the estimates must rise
after each conductance-raising intervention and roughly recover the model
parameters that generated the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.outliers import remove_removal_outliers

#: Gaps smaller than this are dominated by sensor noise; skip them.
_MIN_GAP_C = 2.0


@dataclass(frozen=True)
class EraEstimate:
    """Envelope estimate for one stretch between interventions."""

    label: str
    start: float
    end: float
    samples: int
    ua_w_per_k: Optional[float]
    mean_gap_c: Optional[float]
    mean_power_w: Optional[float]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("era must have positive duration")


def _eras(results) -> List[Tuple[str, float, float]]:
    """Era boundaries: Lascar arrival, then each modification, then end."""
    events = sorted(results.tent.modification_times().items(), key=lambda kv: kv[1])
    start = results.lascar.arrival_time
    eras: List[Tuple[str, float, float]] = []
    label = "pre-mods"
    for letter, when in events:
        if when > start:
            eras.append((label, start, when))
            start = when
        label = f"after-{letter}"
    eras.append((label, start, results.end_time))
    return eras


def estimate_ua_by_era(results, min_gap_c: float = _MIN_GAP_C) -> List[EraEstimate]:
    """Per-era envelope conductance estimates from the run's own telemetry.

    Uses the outlier-cleaned inside series, the station's outside series
    interpolated onto it, and the power meter's displayed draw.
    """
    inside = remove_removal_outliers(results.inside_temperature_raw())
    if inside.empty:
        return []
    outside = results.outside_temperature()
    power_times = results.powermeter.readings.column("time")
    power_watts = results.powermeter.readings.column("watts")

    gap = inside.aligned_difference(outside)
    power_at = np.interp(gap.times, power_times, power_watts)

    estimates: List[EraEstimate] = []
    for label, start, end in _eras(results):
        mask = (gap.times >= start) & (gap.times < end)
        gaps = gap.values[mask]
        power = power_at[mask]
        usable = gaps >= min_gap_c
        if usable.sum() < 10:
            estimates.append(
                EraEstimate(label, start, end, int(usable.sum()), None, None, None)
            )
            continue
        ua_samples = power[usable] / gaps[usable]
        estimates.append(
            EraEstimate(
                label=label,
                start=start,
                end=end,
                samples=int(usable.sum()),
                ua_w_per_k=float(np.median(ua_samples)),
                mean_gap_c=float(gaps[usable].mean()),
                mean_power_w=float(power[usable].mean()),
            )
        )
    return estimates


def summarize(estimates: List[EraEstimate], clock) -> str:
    """Readable per-era table."""
    lines = [f"{'era':<12}{'window':<26}{'n':>6}{'UA (W/K)':>10}{'gap':>8}{'power':>9}"]
    for est in estimates:
        window = f"{clock.format(est.start)[:10]} .. {clock.format(est.end)[:10]}"
        ua = "-" if est.ua_w_per_k is None else f"{est.ua_w_per_k:.0f}"
        gap = "-" if est.mean_gap_c is None else f"{est.mean_gap_c:.1f}C"
        power = "-" if est.mean_power_w is None else f"{est.mean_power_w:.0f}W"
        lines.append(f"{est.label:<12}{window:<26}{est.samples:>6}{ua:>10}{gap:>8}{power:>9}")
    return "\n".join(lines)
