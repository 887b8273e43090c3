"""Synthetic sites for the multi-site free-cooling atlas.

The paper's geographic-extension claim -- "Intel's results from New
Mexico and HP's from North East England can be extended to most parts of
the globe" -- is argued from four hand-built profiles in
:mod:`repro.climate.sites`.  This module scales the argument: a
:class:`SiteParameters` record captures the handful of knobs that
actually decide free-cooling feasibility (latitude, annual mean,
seasonal amplitude, diurnal swing, humidity regime,
maritime-vs-continental character), :meth:`SiteParameters.to_profile`
expands them into a full :class:`~repro.climate.profiles.ClimateProfile`
through the same periodic monthly-anchor convention the stock sites use,
and :func:`sample_sites` draws hundreds of plausible sites
deterministically from one seed so ``repro atlas`` can sweep a synthetic
globe.

Sampling is *per-index* seeded: site ``i`` of a seed-7 atlas is the same
whether 10 or 1000 sites are drawn, so growing an atlas never reshuffles
the sites already scored (and cached).

:func:`profile_from_csv` is the escape hatch from synthesis to
measurement: a real hourly weather trace (``timestamp,temp_c`` with an
optional ``dewpoint_c`` column) is reduced to monthly means, a diurnal
amplitude, and dewpoint-depression statistics, yielding a profile that
rides the same assessment pipeline as the synthetic ones.
"""

from __future__ import annotations

import csv
import datetime as _dt
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.climate.profiles import ClimateProfile
from repro.climate.sites import monthly_anchors

#: Stable stream key for the site sampler (same construction as
#: :func:`repro.sim.rng._name_key`: salted builtin ``hash`` won't do).
_SAMPLER_KEY = int.from_bytes(
    hashlib.sha256(b"climate.synthesis.sites").digest()[:8], "big"
)

#: Default grid price used when a site does not carry its own tariff.
DEFAULT_PRICE_USD_PER_KWH = 0.10


@dataclass(frozen=True)
class SiteParameters:
    """The knobs that decide a site's free-cooling economics.

    ``continentality`` runs from 0 (maritime: small seasonal swing,
    damped synoptics, steady wind off the water -- HP's Wynyard) to 1
    (continental: hard winters, big synoptic excursions -- interior
    plateaus).  ``seasonal_amplitude_c`` is the half peak-to-trough of
    the monthly-mean cycle; ``diurnal_swing_c`` is the full day-night
    range (the high-desert lever that made Intel's economizer work).
    """

    name: str
    latitude_deg: float
    mean_annual_c: float
    seasonal_amplitude_c: float
    diurnal_swing_c: float
    dewpoint_depression_mean_c: float
    dewpoint_depression_std_c: float
    continentality: float
    electricity_price_usd_per_kwh: float = DEFAULT_PRICE_USD_PER_KWH
    year: int = 2010

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError("latitude must be within [-90, 90] degrees")
        if self.seasonal_amplitude_c < 0:
            raise ValueError("seasonal amplitude is a magnitude; must be >= 0")
        if self.diurnal_swing_c < 0:
            raise ValueError("diurnal swing is a magnitude; must be >= 0")
        if self.dewpoint_depression_mean_c < 0 or self.dewpoint_depression_std_c < 0:
            raise ValueError("dewpoint-depression statistics must be >= 0")
        if not 0.0 <= self.continentality <= 1.0:
            raise ValueError("continentality must be within [0, 1]")
        if self.electricity_price_usd_per_kwh <= 0:
            raise ValueError("electricity price must be positive")

    def monthly_means_c(self) -> List[float]:
        """Cosine seasonal cycle through the annual mean.

        The warmest month sits in late July in the northern hemisphere
        and flips to January south of the equator; the equator itself
        simply has a small amplitude, so the phase hardly matters.
        """
        warmest_month = 7.4 if self.latitude_deg >= 0 else 1.4
        return [
            self.mean_annual_c
            + self.seasonal_amplitude_c
            * math.cos(2.0 * math.pi * (month - warmest_month) / 12.0)
            for month in range(1, 13)
        ]

    def to_profile(self) -> ClimateProfile:
        """Expand to the full generator parameter set.

        Variability parameters derive from the knobs the same way the
        hand-built profiles were calibrated: continentality trades wind
        for synoptic excursions, dry air buys a larger afternoon
        humidity dip, and clear-sky noon sun follows latitude.
        """
        solar_noon = max(
            250.0,
            min(950.0, 1000.0 * math.cos(math.radians(abs(self.latitude_deg)))),
        )
        return ClimateProfile(
            name=self.name,
            anchors=monthly_anchors(self.year, self.monthly_means_c()),
            diurnal_amplitude_c=0.5 * self.diurnal_swing_c,
            synoptic_std_c=1.2 + 2.3 * self.continentality,
            synoptic_corr_hours=48.0 + 36.0 * self.continentality,
            dewpoint_depression_mean_c=self.dewpoint_depression_mean_c,
            dewpoint_depression_std_c=self.dewpoint_depression_std_c,
            diurnal_depression_c=min(8.0, 2.0 + 0.4 * self.diurnal_swing_c),
            wind_mean_ms=5.5 - 2.8 * self.continentality,
            solar_noon_peak_wm2=solar_noon,
            latitude_deg=self.latitude_deg,
        )


def site_at_index(index: int, seed: int, year: int = 2010) -> SiteParameters:
    """Draw synthetic site ``index`` of the seed's infinite atlas.

    Each index gets its own :class:`~numpy.random.SeedSequence`, so the
    draw is a pure function of ``(seed, index)`` -- independent of how
    many sites any particular sweep asked for.

    The marginals follow climatological common sense rather than any
    dataset: annual means cool poleward at roughly 0.55 degC per degree
    of latitude with a few degrees of maritime/altitude scatter,
    seasonal amplitude grows with both latitude and continentality, and
    dry air (large dewpoint depression) brings the large diurnal swings
    of the high desert.
    """
    if index < 0:
        raise ValueError("site index must be >= 0")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, index, _SAMPLER_KEY])
    )
    latitude = float(rng.uniform(-65.0, 65.0))
    mean_annual = 27.0 - 0.55 * abs(latitude) + float(rng.normal(0.0, 3.0))
    continentality = float(rng.uniform(0.0, 1.0))
    amplitude = max(
        0.5,
        (1.0 + 0.25 * abs(latitude)) * (0.3 + 0.8 * continentality)
        + float(rng.normal(0.0, 1.0)),
    )
    depression_mean = float(rng.uniform(1.0, 16.0))
    swing = min(20.0, max(1.0, 2.0 + 0.9 * depression_mean + float(rng.normal(0.0, 1.5))))
    price = float(rng.uniform(0.05, 0.20))
    return SiteParameters(
        name=f"site-{index:04d}",
        latitude_deg=latitude,
        mean_annual_c=mean_annual,
        seasonal_amplitude_c=amplitude,
        diurnal_swing_c=swing,
        dewpoint_depression_mean_c=depression_mean,
        dewpoint_depression_std_c=0.5 + 0.2 * depression_mean,
        continentality=continentality,
        electricity_price_usd_per_kwh=price,
        year=year,
    )


def sample_sites(n: int, seed: int, year: int = 2010) -> List[SiteParameters]:
    """The first ``n`` sites of the seed's atlas (see :func:`site_at_index`)."""
    if n < 1:
        raise ValueError("need at least one site")
    return [site_at_index(index, seed, year=year) for index in range(n)]


def profile_from_csv(
    path: str, name: Optional[str] = None
) -> ClimateProfile:
    """Calibrate a profile from an hourly weather-trace CSV.

    The file needs a header with ``timestamp`` (ISO 8601) and ``temp_c``
    columns; a ``dewpoint_c`` column, when present, calibrates the
    humidity regime.  The trace is reduced to the statistics the
    generator consumes: per-month mean temperatures (every month of the
    first year must be represented), the mean daily half-range as the
    diurnal amplitude, and dewpoint-depression mean/std.  Seasonal
    anchors use the same periodic year-end convention as every other
    profile, so imported and synthetic sites rank on equal terms.
    """
    by_month: Dict[int, List[float]] = {m: [] for m in range(1, 13)}
    by_day: Dict[_dt.date, List[float]] = {}
    depressions: List[float] = []
    year: Optional[int] = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        missing = {"timestamp", "temp_c"} - set(fields)
        if missing:
            raise ValueError(
                f"{path}: missing required column(s) {sorted(missing)}; "
                "need a header with timestamp,temp_c[,dewpoint_c]"
            )
        has_dewpoint = "dewpoint_c" in fields
        for row in reader:
            when = _dt.datetime.fromisoformat(row["timestamp"].strip())
            temp = float(row["temp_c"])
            if year is None:
                year = when.year
            if when.year != year:
                continue  # reduce exactly one year; later rows are surplus
            by_month[when.month].append(temp)
            by_day.setdefault(when.date(), []).append(temp)
            if has_dewpoint and row["dewpoint_c"].strip():
                depressions.append(temp - float(row["dewpoint_c"]))
    if year is None:
        raise ValueError(f"{path}: no data rows")
    empty = [m for m, temps in by_month.items() if not temps]
    if empty:
        raise ValueError(
            f"{path}: no samples for month(s) {empty} of {year}; a "
            "full-year trace is needed to place the seasonal anchors"
        )
    means = [float(np.mean(by_month[m])) for m in range(1, 13)]
    half_ranges = [
        0.5 * (max(temps) - min(temps))
        for temps in by_day.values()
        if len(temps) >= 4  # skip fragmentary days
    ]
    amplitude = float(np.mean(half_ranges)) if half_ranges else 3.0
    kwargs = {}
    if depressions:
        kwargs["dewpoint_depression_mean_c"] = max(0.0, float(np.mean(depressions)))
        kwargs["dewpoint_depression_std_c"] = float(np.std(depressions))
    return ClimateProfile(
        name=name if name is not None else f"csv-{year}",
        anchors=monthly_anchors(year, means),
        diurnal_amplitude_c=amplitude,
        **kwargs,
    )
