"""Synthetic weather: the atmosphere the tent lives in.

The generator composes the outside temperature from four parts::

    temp(t) = seasonal_mean(t)            # profile anchors (Feb cold -> May warm)
            - cold_snap_pulses(t)         # scripted -22 degC episode etc.
            + synoptic_anomaly(t)         # multi-day AR(1) weather systems
            + diurnal_cycle(t)            # afternoon peak, damped by cloud
            + fast_noise(t)               # hour-scale jitter

Dewpoint is the temperature minus a positive, slowly varying depression
(small depressions = near-saturated air, the humid-Finnish-winter regime),
and relative humidity follows from the Magnus formula.  Wind and cloud are
independent AR(1) processes; solar irradiance combines astronomy (latitude,
day of year, hour) with cloud cover.

Everything is precomputed on an hourly grid and interpolated, so queries are
O(1), vectorisable, and bit-reproducible for a given ``(profile, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.climate.profiles import ClimateProfile, HELSINKI_2010
from repro.climate.psychro import relative_humidity_from_dewpoint
from repro.sim.clock import DAY, HOUR, SimClock
from repro.sim.rng import RngStreams

ArrayLike = Union[float, np.ndarray]

#: Local solar hour of the diurnal temperature maximum.
_DIURNAL_PEAK_HOUR = 14.0
#: Correlation time of the fast temperature jitter.
_FAST_NOISE_CORR_HOURS = 2.0


@dataclass(frozen=True)
class WeatherSample:
    """Atmospheric state at one instant.

    Attributes are the quantities the paper's instruments observed:
    dry-bulb temperature, dewpoint, relative humidity, wind speed, solar
    irradiance, cloud fraction, and precipitation rate -- the last being
    what the tent (and the prototype's plastic boxes) exist to keep off
    the hardware.  ``snowing`` distinguishes snow from rain by the
    near-surface temperature.
    """

    time: float
    temp_c: float
    dewpoint_c: float
    rh_percent: float
    wind_ms: float
    solar_wm2: float
    cloud_fraction: float
    precip_mm_h: float = 0.0

    def __post_init__(self) -> None:
        if self.dewpoint_c > self.temp_c + 1e-6:
            raise ValueError("dewpoint cannot exceed dry-bulb temperature")
        if self.precip_mm_h < 0.0:
            raise ValueError("precipitation rate cannot be negative")

    @property
    def snowing(self) -> bool:
        """Frozen precipitation (what Helsinki delivers below ~+0.5 degC)."""
        return self.precip_mm_h > 0.0 and self.temp_c <= 0.5


def _ar1_series(
    rng: np.random.Generator, n: int, std: float, corr_steps: float
) -> np.ndarray:
    """Stationary AR(1) series of length ``n`` with marginal std ``std``."""
    if n <= 0:
        return np.zeros(0)
    rho = math.exp(-1.0 / max(corr_steps, 1e-9))
    innovation_std = std * math.sqrt(max(1.0 - rho * rho, 1e-12))
    x = np.empty(n)
    x[0] = rng.normal(0.0, std)
    shocks = rng.normal(0.0, innovation_std, size=n - 1) if n > 1 else np.zeros(0)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + shocks[i - 1]
    return x


def solar_elevation_deg(latitude_deg: float, day_of_year: float, hour_of_day: float) -> float:
    """Solar elevation angle (degrees) by the standard declination formula."""
    decl = -23.44 * math.cos(2.0 * math.pi * (day_of_year + 10.0) / 365.0)
    hour_angle = 15.0 * (hour_of_day - 12.0)
    lat, dec, ha = map(math.radians, (latitude_deg, decl, hour_angle))
    sin_elev = math.sin(lat) * math.sin(dec) + math.cos(lat) * math.cos(dec) * math.cos(ha)
    return math.degrees(math.asin(max(-1.0, min(1.0, sin_elev))))


class WeatherGenerator:
    """Deterministic synthetic atmosphere for one campaign.

    Parameters
    ----------
    profile:
        Calibration (defaults to :data:`~repro.climate.profiles.HELSINKI_2010`).
    streams:
        RNG family; the generator uses streams prefixed ``climate.``.
    clock:
        Maps simulated seconds to calendar time.  The generator covers the
        profile's full anchor span.
    """

    def __init__(
        self,
        profile: ClimateProfile = HELSINKI_2010,
        streams: Optional[RngStreams] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        self.profile = profile
        self.clock = clock if clock is not None else SimClock()
        streams = streams if streams is not None else RngStreams(0)
        self._build_grid(streams)

    def __repr__(self) -> str:
        return (
            f"WeatherGenerator(profile={self.profile.name!r}, "
            f"span=[{self.profile.start:%Y-%m-%d} .. {self.profile.end:%Y-%m-%d}])"
        )

    # ------------------------------------------------------------------
    # Grid construction
    # ------------------------------------------------------------------
    def _build_grid(self, streams: RngStreams) -> None:
        p = self.profile
        t0 = self.clock.to_seconds(p.start)
        t1 = self.clock.to_seconds(p.end)
        n = int((t1 - t0) / HOUR) + 1
        self._grid_t = t0 + HOUR * np.arange(n)

        synoptic = _ar1_series(
            streams.stream("climate.synoptic"), n, p.synoptic_std_c, p.synoptic_corr_hours
        )
        fast = _ar1_series(
            streams.stream("climate.fast"), n, p.weather_noise_std_c, _FAST_NOISE_CORR_HOURS
        )
        cloud_raw = _ar1_series(streams.stream("climate.cloud"), n, 1.0, p.cloud_corr_hours)
        self._cloud = 1.0 / (1.0 + np.exp(-1.4 * cloud_raw + 0.5))  # biased cloudy

        wind_raw = _ar1_series(streams.stream("climate.wind"), n, 1.0, p.wind_corr_hours)
        self._wind = np.maximum(0.1, p.wind_mean_ms + p.wind_std_ms * wind_raw)

        depression_raw = _ar1_series(
            streams.stream("climate.dewpoint"), n, 1.0, p.synoptic_corr_hours
        )
        self._depression_slow = (
            p.dewpoint_depression_mean_c + p.dewpoint_depression_std_c * depression_raw
        )

        seasonal = np.array([p.seasonal_mean(self.clock.to_datetime(t)) for t in self._grid_t])
        snaps = np.zeros(n)
        for snap in p.cold_snaps:
            peak_t = self.clock.to_seconds(snap.peak)
            sigma_s = snap.sigma_days * DAY
            snaps -= snap.depth_c * np.exp(-0.5 * ((self._grid_t - peak_t) / sigma_s) ** 2)

        hours = np.array([self.clock.hour_of_day(t) for t in self._grid_t])
        days = np.array([self.clock.day_of_year(t) for t in self._grid_t])
        diurnal = (
            p.diurnal_amplitude_c
            * (1.0 - 0.7 * self._cloud)
            * np.cos(2.0 * math.pi * (hours - _DIURNAL_PEAK_HOUR) / 24.0)
        )

        self._temp = seasonal + snaps + synoptic + diurnal + fast

        elev = np.array(
            [
                solar_elevation_deg(p.latitude_deg, d, h)
                for d, h in zip(days, hours)
            ]
        )
        elev_factor = np.maximum(0.0, np.sin(np.radians(np.maximum(elev, 0.0))))
        self._solar = p.solar_noon_peak_wm2 * elev_factor * (1.0 - 0.82 * self._cloud)

        # Afternoon air dries out: the depression gains a daylight term,
        # which is what makes outside RH in Fig. 4 so much twitchier than
        # the tent's.
        diurnal_depression = p.diurnal_depression_c * elev_factor * (1.0 - 0.6 * self._cloud)
        self._depression = np.maximum(0.2, self._depression_slow + diurnal_depression)
        self._dewpoint = self._temp - self._depression

        # Precipitation falls from heavy overcast with near-saturated air:
        # an intensity process gated by cloud cover and dewpoint depression.
        precip_raw = _ar1_series(streams.stream("climate.precip"), n, 1.0, 18.0)
        wet_enough = (self._cloud > 0.72) & (self._depression < 2.5)
        intensity = np.maximum(0.0, 0.8 + 1.1 * precip_raw)
        self._precip = np.where(wet_enough, intensity, 0.0)

        # Scalar-query fast path state: the grid is uniform (hourly), so a
        # scalar lookup can index by division instead of searchsorted, and
        # the enclosures + station all sample the same instant each tick,
        # so the last full sample is memoised.  The series are read as
        # Python floats through views of the arrays (no copies).
        self._t0f = float(self._grid_t[0])
        self._t1f = float(self._grid_t[-1])
        self._grid_view = memoryview(self._grid_t)
        self._sample_views = tuple(
            memoryview(series)
            for series in (
                self._temp,
                self._dewpoint,
                self._wind,
                self._solar,
                self._cloud,
                self._precip,
            )
        )
        self._sample_cache_t: Optional[float] = None
        self._sample_cache: Optional[WeatherSample] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        """Earliest queryable simulated time."""
        return float(self._grid_t[0])

    @property
    def end_time(self) -> float:
        """Latest queryable simulated time."""
        return float(self._grid_t[-1])

    def _check_range(self, t: np.ndarray) -> None:
        if np.any(t < self.start_time - 1e-6) or np.any(t > self.end_time + 1e-6):
            raise ValueError(
                f"time outside generated span "
                f"[{self.start_time:.0f}, {self.end_time:.0f}] s"
            )

    def temperature(self, time: ArrayLike) -> ArrayLike:
        """Outside dry-bulb temperature (degC) at ``time``."""
        return self._interp(time, self._temp)

    def dewpoint(self, time: ArrayLike) -> ArrayLike:
        """Outside dewpoint (degC) at ``time``."""
        return self._interp(time, self._dewpoint)

    def relative_humidity(self, time: ArrayLike) -> ArrayLike:
        """Outside relative humidity (%) at ``time``."""
        temp = self._interp(time, self._temp)
        dew = self._interp(time, self._dewpoint)
        return relative_humidity_from_dewpoint(temp, dew)

    def wind_speed(self, time: ArrayLike) -> ArrayLike:
        """Wind speed (m/s) at ``time``."""
        return self._interp(time, self._wind)

    def solar_irradiance(self, time: ArrayLike) -> ArrayLike:
        """Global solar irradiance on a horizontal surface (W/m^2)."""
        return self._interp(time, self._solar)

    def cloud_fraction(self, time: ArrayLike) -> ArrayLike:
        """Cloud cover fraction in ``[0, 1]``."""
        return self._interp(time, self._cloud)

    def precipitation(self, time: ArrayLike) -> ArrayLike:
        """Precipitation rate (mm/h water equivalent; snow below ~0 degC)."""
        return self._interp(time, self._precip)

    def sample(self, time: float) -> WeatherSample:
        """Full atmospheric state at one instant (memoised per instant).

        Every enclosure and the station sample the same tick time, so the
        last sample is cached; :class:`WeatherSample` is frozen, making
        the shared instance safe.
        """
        t = float(time)
        if t == self._sample_cache_t and self._sample_cache is not None:
            return self._sample_cache
        i, offset, width = self._bracket(t)
        if offset == 0.0:
            values = [series[i] for series in self._sample_views]
        else:
            j = i + 1
            values = [
                (series[j] - series[i]) / width * offset + series[i]
                for series in self._sample_views
            ]
        temp, dew, wind, solar, cloud, precip = values
        sample = WeatherSample(
            time=t,
            temp_c=temp,
            dewpoint_c=dew,
            rh_percent=float(relative_humidity_from_dewpoint(temp, dew)),
            wind_ms=wind,
            solar_wm2=solar,
            cloud_fraction=cloud,
            precip_mm_h=precip,
        )
        self._sample_cache_t = t
        self._sample_cache = sample
        return sample

    def series(self, times: Sequence[float]) -> "list[WeatherSample]":
        """Samples at each of ``times`` (convenience for analysis code)."""
        return [self.sample(t) for t in times]

    def _interp(self, time: ArrayLike, values: np.ndarray) -> ArrayLike:
        if isinstance(time, (float, int)):
            return self._interp_scalar(float(time), values)
        t = np.asarray(time, dtype=float)
        self._check_range(t)
        out = np.interp(t, self._grid_t, values)
        if np.isscalar(time):
            return float(out)
        return out

    def _interp_scalar(self, t: float, values: np.ndarray) -> float:
        """Scalar lerp on the uniform hourly grid.

        Bit-identical to ``np.interp`` (same slope/offset arithmetic on
        the same bracketing points) but O(1) with no array temporaries.
        """
        i, offset, width = self._bracket(t)
        if offset == 0.0:
            return float(values[i])
        return float((values[i + 1] - values[i]) / width * offset + values[i])

    def _bracket(self, t: float) -> Tuple[int, float, float]:
        """``(i, t - grid[i], grid[i + 1] - grid[i])`` for the hour holding ``t``.

        ``np.interp``'s value at ``t`` is then ``values[i]`` when the
        offset is 0 (``t`` on a grid point or clamped to a span end) and
        ``(values[i + 1] - values[i]) / width * offset + values[i]``
        otherwise.  Times more than 1 us outside the span raise
        :class:`ValueError`.
        """
        if t < self._t0f - 1e-6 or t > self._t1f + 1e-6:
            raise ValueError(
                f"time outside generated span "
                f"[{self.start_time:.0f}, {self.end_time:.0f}] s"
            )
        grid = self._grid_view
        if t <= self._t0f:
            return 0, 0.0, 1.0
        last = len(grid) - 2
        if t >= self._t1f:
            return last + 1, 0.0, 1.0
        i = int((t - self._t0f) / HOUR)
        if i > last:
            i = last
        # Guard the division against float rounding at hour boundaries.
        while i > 0 and grid[i] > t:
            i -= 1
        while i < last and grid[i + 1] <= t:
            i += 1
        x_lo = grid[i]
        return i, t - x_lo, grid[i + 1] - x_lo
