"""The data series behind each of the paper's figures.

- Fig. 1 is a schematic of the tent (nothing to compute);
- Fig. 2 is the install timeline of the tent hosts;
- Fig. 3 is temperature inside and outside the tent, with the R/I/B/F
  modification events marked;
- Fig. 4 is relative humidity inside and outside (inside series starting
  at the Lascar logger's late arrival, outliers removed).

Each builder consumes an :class:`~repro.core.results.ExperimentResults`
and returns plain dataclasses of :class:`~repro.analysis.series.TimeSeries`
so benchmarks, tests, and plotting examples all share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.outliers import remove_removal_outliers, remove_with_companion
from repro.analysis.series import TimeSeries
from repro.core.results import ExperimentResults


#: Fig. 1 is "Schematic for tent shielding the computer hardware from
#: rain and snow" -- a drawing, not data.  The reproduction renders its
#: own schematic of the modelled tent so every figure number resolves.
_FIG1 = r"""
        Fig. 1 -- tent schematic (as modelled)

                   ~ solar gain (cut by foil cover R)
                 \ | /
              .-~~~~~~~~-.      outer fabric (UA_base; door D half-open)
            /   .------.   \
           /   / inner  \   \   inner tent fabric (removed at I)
          |   |  [HOST]   |  |
  wind ->  |  |  [HOST]   |  |   9 hosts, ~0.9 kW IT load
  (raises |  |  [HOST]+fan|  |   tabletop fan installed at F
   UA)     \   \ ______ /   /
            \ .-~------~-. /
         =====            =====   bottom tarpaulin (partially removed at B)
         ^ elevated terrace floor: cool air circulates up through the gap
"""


def fig1_schematic() -> str:
    """The Fig. 1 tent drawing, annotated with the model's parameters."""
    return _FIG1.strip("\n")


@dataclass(frozen=True)
class Fig2Row:
    """One bar of the install timeline."""

    host_id: int
    vendor_id: str
    install_time: float
    removed_time: Optional[float]  # e.g. #15 leaving the tent
    replacement_for: Optional[int]  # e.g. #19 replacing #15


@dataclass(frozen=True)
class Fig2Timeline:
    """Fig. 2: dates of when (tent) servers were installed."""

    rows: Tuple[Fig2Row, ...]
    prototype_start: float
    test_start: float

    def host_ids(self) -> List[int]:
        """Hosts in install order (the figure's y-axis labels)."""
        return [r.host_id for r in self.rows]


def fig2_timeline(results: ExperimentResults) -> Fig2Timeline:
    """Reconstruct the install timeline from the run's actual events."""
    clock = results.clock
    replacements = {new: old for (_t, old, new) in results.policy.replacements}
    removed_at: Dict[int, float] = {
        old: t for (t, old, _new) in results.policy.replacements
    }
    rows: List[Fig2Row] = []
    tent_ids = set(results.tent_host_ids()) | {
        new for (_t, _old, new) in results.policy.replacements
    }
    for host_id in sorted(tent_ids):
        host = results.fleet.host(host_id)
        if host.installed_at is None:
            continue
        rows.append(
            Fig2Row(
                host_id=host_id,
                vendor_id=host.spec.vendor_id,
                install_time=host.installed_at,
                removed_time=removed_at.get(host_id),
                replacement_for=replacements.get(host_id),
            )
        )
    rows.sort(key=lambda r: (r.install_time, r.host_id))
    return Fig2Timeline(
        rows=tuple(rows),
        prototype_start=clock.to_seconds(results.config.prototype_start),
        test_start=clock.to_seconds(results.config.test_start),
    )


@dataclass(frozen=True)
class Fig3Data:
    """Fig. 3: temperatures outside and inside the tent, plus event marks."""

    outside: TimeSeries
    inside: TimeSeries  # outliers removed, starts at Lascar arrival
    events: Dict[str, float]  # letter (R/I/B/F/D) -> time

    def inside_excess(self) -> TimeSeries:
        """Inside minus outside on the inside series' timestamps."""
        return self.inside.aligned_difference(self.outside)


def fig3_temperatures(results: ExperimentResults) -> Fig3Data:
    """Build the Fig. 3 series from a finished run."""
    outside = results.outside_temperature()
    inside_raw = results.inside_temperature_raw()
    inside = (
        remove_removal_outliers(inside_raw) if not inside_raw.empty else inside_raw
    )
    return Fig3Data(
        outside=outside,
        inside=inside,
        events=results.tent.modification_times(),
    )


@dataclass(frozen=True)
class Fig4Data:
    """Fig. 4: relative humidities inside and outside the tent."""

    outside: TimeSeries
    inside: TimeSeries  # outlier-cleaned, co-dropped with temperature
    lascar_arrival: float

    def stability_ratio(self, detrend_window_s: float = 86_400.0) -> float:
        """Outside-over-inside std of *fast* RH fluctuation (>1: tent smooths).

        The paper's Fig. 4 claim -- "the tent has been able to retain more
        stable relative humidities than outside air" -- is about visible
        short-term twitchiness, so both series are detrended with a rolling
        mean (default 24 h) before comparing standard deviations, and the
        comparison uses the overlapping span only (the outside record
        starts weeks before the logger arrived).
        """
        if self.inside.empty or self.outside.empty:
            raise ValueError("stability ratio needs both series")
        start = self.inside.times[0]
        end = self.inside.times[-1] + 1e-9
        outside_overlap = self.outside.window(start, end)
        inside_fast = self.inside.values - self.inside.rolling_mean(detrend_window_s).values
        outside_fast = (
            outside_overlap.values - outside_overlap.rolling_mean(detrend_window_s).values
        )
        return float(outside_fast.std() / inside_fast.std())


def fig4_humidities(results: ExperimentResults) -> Fig4Data:
    """Build the Fig. 4 series from a finished run.

    The Lascar logs temperature and RH on shared timestamps; RH samples
    taken during download trips are dropped together with the temperature
    samples that expose them (the paper removed the same outliers).
    """
    outside = results.outside_humidity()
    inside_t = results.inside_temperature_raw()
    inside_rh = results.inside_humidity_raw()
    if not inside_t.empty:
        _, inside_rh = remove_with_companion(inside_t, inside_rh)
    return Fig4Data(
        outside=outside,
        inside=inside_rh,
        lascar_arrival=results.lascar.arrival_time,
    )
