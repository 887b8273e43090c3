"""The Section 5 condensation study as a reusable analysis.

"A central question concerns whether water can condense in the hardware,
potentially short circuiting the electrical components."  The paper's
answer is qualitative; this module makes it a sweep: for a set of
case-heating levels, evaluate the dewpoint margin across an ambient
series and report how often each case would condense.

Used by the A3 benchmark, the condensation example, and anyone sizing a
minimum idle load for free-air gear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.series import TimeSeries
from repro.climate.psychro import condensation_margin


@dataclass(frozen=True)
class CondensationPoint:
    """Condensation exposure for one case-heating level."""

    case_rise_c: float
    samples: int
    condensing_fraction: float
    min_margin_c: float

    @property
    def safe(self) -> bool:
        """No sampled instant put the surface at/below the dewpoint."""
        return self.condensing_fraction == 0.0


def sweep_case_rises(
    ambient_temp: TimeSeries,
    ambient_rh: TimeSeries,
    case_rises_c: Sequence[float],
) -> List[CondensationPoint]:
    """Dewpoint-margin sweep over co-sampled ambient conditions.

    ``ambient_temp`` and ``ambient_rh`` must share timestamps (the Lascar
    logs both on one clock).
    """
    if len(ambient_temp) != len(ambient_rh) or not np.array_equal(
        ambient_temp.times, ambient_rh.times
    ):
        raise ValueError("temperature and RH series must share timestamps")
    if ambient_temp.empty:
        raise ValueError("cannot sweep an empty series")
    points: List[CondensationPoint] = []
    for rise in case_rises_c:
        if rise < 0:
            raise ValueError("case rise cannot be negative")
        margin = condensation_margin(
            ambient_temp.values + rise, ambient_temp.values, ambient_rh.values
        )
        margin = np.asarray(margin)
        points.append(
            CondensationPoint(
                case_rise_c=float(rise),
                samples=len(margin),
                condensing_fraction=float((margin <= 0.0).mean()),
                min_margin_c=float(margin.min()),
            )
        )
    return points


def minimum_safe_rise_c(
    ambient_temp: TimeSeries,
    ambient_rh: TimeSeries,
    resolution_c: float = 0.25,
    ceiling_c: float = 15.0,
) -> float:
    """Smallest case rise that never condenses over the series.

    The design number for free-air hardware: keep at least this much
    self-heating (idle load) and the dewpoint never catches the case.
    Raises if even ``ceiling_c`` is not enough (pathological input).
    """
    if resolution_c <= 0:
        raise ValueError("resolution must be positive")
    rises = np.arange(0.0, ceiling_c + resolution_c, resolution_c)
    for point in sweep_case_rises(ambient_temp, ambient_rh, rises):
        if point.safe:
            return point.case_rise_c
    raise ValueError(f"no safe case rise below {ceiling_c} degC")
