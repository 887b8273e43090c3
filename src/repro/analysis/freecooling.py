"""Free-cooling feasibility: the paper's geographic-extension argument.

Section 1: "Using outside air to cool the data center can yield energy
savings from 40 % to 67 %, according to HP and Intel respectively", and
"If we can bring the server equipment to tolerate North European
conditions, we have shown that Intel's results from New Mexico and HP's
from North East England can be extended to most parts of the globe."

:func:`assess_site` sweeps a year of synthetic weather for one site and
computes how many hours unconditioned outside air can serve as the sole
cooling medium, plus the blended cooling-energy savings against a
conventional chiller plant.  :func:`compare_sites` ranks sites, making
the intro's claim quantitative: the colder the climate, the closer the
savings get to 100 % -- and the paper's own experiment shows the
equipment survives exactly those climates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.pue import PAPER_CLUSTER_PLANT, CoolingPlant
from repro.climate.generator import WeatherGenerator
from repro.climate.profiles import ClimateProfile
from repro.sim.clock import HOUR, SimClock
from repro.sim.rng import RngStreams

#: ASHRAE-style recommended intake ceiling of the paper's era.
DEFAULT_INTAKE_LIMIT_C = 27.0
#: Air picks up a few degrees between the louver and the server inlet.
DEFAULT_APPROACH_C = 2.0
#: Fan power needed to move the free-cooling air, as in the PUE module.
DEFAULT_FAN_KW = 3.0


@dataclass(frozen=True)
class SiteAssessment:
    """Free-cooling verdict for one site and one intake policy."""

    site: str
    intake_limit_c: float
    approach_c: float
    hours_total: int
    hours_free: int
    outside_min_c: float
    outside_max_c: float
    chiller_cooling_kw: float
    fan_kw: float

    def __post_init__(self) -> None:
        if self.hours_total <= 0:
            raise ValueError(
                "an assessment needs at least one scored hour; degenerate "
                "spans are rejected upstream by assess_site"
            )
        if self.hours_free > self.hours_total:
            raise ValueError("free hours cannot exceed total hours")

    @property
    def free_fraction(self) -> float:
        """Fraction of the year unconditioned outside air suffices."""
        return self.hours_free / self.hours_total

    @property
    def blended_cooling_kw(self) -> float:
        """Mean cooling-plant draw with an economizer: fans during free
        hours, the full chiller plant otherwise (fans keep spinning)."""
        chiller_fraction = 1.0 - self.free_fraction
        return self.fan_kw + chiller_fraction * self.chiller_cooling_kw

    @property
    def cooling_energy_savings(self) -> float:
        """Fraction of cooling energy saved versus chillers year-round.

        Baseline convention: the denominator is the chiller plant draw
        *alone* (``chiller_cooling_kw``), because the conventional
        facility being displaced runs chillers and no economizer fans.
        The economizer's fans appear only in the numerator's blended
        draw, so a site with no free hours shows *negative* savings --
        the retrofit added fan draw without displacing any chiller
        energy -- rather than a flattering exact zero.  (An earlier
        version included ``fan_kw`` in the baseline, understating every
        site's savings; see the regression pins in
        ``tests/analysis/test_freecooling.py``.)
        """
        if self.chiller_cooling_kw == 0:
            return 0.0
        return 1.0 - self.blended_cooling_kw / self.chiller_cooling_kw

    @property
    def hours_above_limit(self) -> int:
        """Hours the approach-adjusted intake exceeds the ceiling.

        The atlas uses this as its failure-risk proxy: every such hour
        the economizer must either fall back to chillers or push air
        past the rated intake temperature.
        """
        return self.hours_total - self.hours_free

    def describe(self) -> str:
        """One-line verdict for reports."""
        return (
            f"{self.site}: free cooling {100 * self.free_fraction:.0f} % of hours "
            f"(outside {self.outside_min_c:.0f}..{self.outside_max_c:.0f} degC), "
            f"cooling energy saved {100 * self.cooling_energy_savings:.0f} %"
        )


def assess_site(
    profile: ClimateProfile,
    intake_limit_c: float = DEFAULT_INTAKE_LIMIT_C,
    approach_c: float = DEFAULT_APPROACH_C,
    plant: CoolingPlant = PAPER_CLUSTER_PLANT,
    fan_kw: float = DEFAULT_FAN_KW,
    seed: int = 0,
) -> SiteAssessment:
    """Sweep the profile's full span hourly and score free-cooling hours.

    An hour counts as *free* when outside air plus the approach delta
    stays at or below the intake ceiling -- the paper's whole point being
    that no further conditioning (temperature or humidity) is needed.
    """
    if intake_limit_c <= -40.0:
        raise ValueError("intake limit implausibly low")
    if approach_c < 0:
        raise ValueError("approach delta cannot be negative")
    if profile.end <= profile.start:
        raise ValueError(
            f"profile {profile.name!r} spans no time "
            f"({profile.start:%Y-%m-%d} .. {profile.end:%Y-%m-%d}); "
            "an assessment needs at least one scored hour"
        )
    clock = SimClock(profile.start)
    weather = WeatherGenerator(profile, RngStreams(seed), clock)
    # Cover the full span *inclusively*: ``np.arange(start, end, HOUR)``
    # silently dropped the final grid hour (the half-open endpoint), so a
    # 365-day profile scored 8760 of its 8761 grid points.
    hours = int((weather.end_time - weather.start_time) / HOUR) + 1
    times = weather.start_time + HOUR * np.arange(hours)
    temps = np.asarray(weather.temperature(times))
    free = temps + approach_c <= intake_limit_c
    return SiteAssessment(
        site=profile.name,
        intake_limit_c=intake_limit_c,
        approach_c=approach_c,
        hours_total=len(times),
        hours_free=int(free.sum()),
        outside_min_c=float(temps.min()),
        outside_max_c=float(temps.max()),
        chiller_cooling_kw=plant.cooling_total_kw,
        fan_kw=fan_kw,
    )


def compare_sites(
    profiles: Sequence[ClimateProfile],
    intake_limit_c: float = DEFAULT_INTAKE_LIMIT_C,
    approach_c: float = DEFAULT_APPROACH_C,
    plant: CoolingPlant = PAPER_CLUSTER_PLANT,
    fan_kw: float = DEFAULT_FAN_KW,
    seed: int = 0,
) -> "list[SiteAssessment]":
    """Assess every site, best first, with a deterministic total order.

    The ranking key is ``(-free_fraction, -cooling_energy_savings,
    name)``: free fraction decides, savings breaks plant-parameter ties,
    and the site name makes exact ties (two 100 %-free polar sites)
    independent of input ordering -- the atlas's ranked table must be
    byte-identical however its sweep happened to complete.
    """
    assessments = [
        assess_site(
            profile,
            intake_limit_c=intake_limit_c,
            approach_c=approach_c,
            plant=plant,
            fan_kw=fan_kw,
            seed=seed,
        )
        for profile in profiles
    ]
    assessments.sort(
        key=lambda a: (-a.free_fraction, -a.cooling_energy_savings, a.site)
    )
    return assessments
