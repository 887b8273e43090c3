"""The outside reference instrument: a SMEAR III-style weather station.

The paper's outside temperature and humidity series (Figs. 3 and 4) come
from the SMEAR III station operated next to the CS building.  The station
model samples the synthetic atmosphere on a fixed cadence with small,
research-grade instrument error, and accumulates a record the analysis
layer can consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.climate.generator import WeatherGenerator
from repro.climate.psychro import relative_humidity_from_dewpoint
from repro.sim.clock import MINUTE
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.state.codec import History
from repro.state.protocol import check_version, parsing

#: Version 2 stores the next observation time; version 1 (a
#: ``station.observe`` periodic task) is upgraded by
#: :mod:`repro.core.legacy`.
_STATE_VERSION = 2


@dataclass(frozen=True)
class StationReading:
    """One logged observation from the weather station."""

    time: float
    temp_c: float
    rh_percent: float
    wind_ms: float
    solar_wm2: float


_READINGS = History(
    StationReading,
    [
        ("time", float),
        ("temp_c", float),
        ("rh_percent", float),
        ("wind_ms", float),
        ("solar_wm2", float),
    ],
)


class WeatherStation:
    """Periodic sampler of a :class:`WeatherGenerator` with instrument error.

    The atmosphere is a pure function of time and the instrument error
    has its own stream, so an attached station schedules nothing: the
    observations due by the simulator's current time are taken in one
    vectorised batch whenever something reads them (:attr:`readings`,
    the accessors, :meth:`state_dict`).  A batch draws four normals per
    observation in one call, which leaves the ``station.noise`` stream
    exactly where per-observation draws would.

    Parameters
    ----------
    weather:
        The atmosphere to observe.
    streams:
        RNG family; uses the ``station.noise`` stream.
    temp_error_std_c / rh_error_std:
        1-sigma instrument error.  SMEAR III class instruments are far
        better than the tent's consumer data logger, so the defaults are
        small (0.1 degC, 1 % RH).
    period_s:
        Sampling cadence; the paper's outside series is ~10-minute data.
    """

    #: 1-sigma error of the wind reading (m/s) and relative error of the
    #: solar reading.
    WIND_ERROR_STD_MS = 0.1
    SOLAR_ERROR_FRACTION = 0.02

    def __init__(
        self,
        weather: WeatherGenerator,
        streams: Optional[RngStreams] = None,
        temp_error_std_c: float = 0.1,
        rh_error_std: float = 1.0,
        period_s: float = 10 * MINUTE,
    ) -> None:
        if period_s <= 0:
            raise ValueError("sampling period must be positive")
        self.weather = weather
        self.temp_error_std_c = temp_error_std_c
        self.rh_error_std = rh_error_std
        self.period_s = period_s
        streams = streams if streams is not None else RngStreams(0)
        self._rng = streams.stream("station.noise")
        self._readings: List[StationReading] = []
        self._packed = _READINGS.packer()
        self._sim: Optional[Simulator] = None
        #: Next observation time while attached.
        self._next: Optional[float] = None

    def __repr__(self) -> str:
        stored = len(self._readings)
        return f"WeatherStation(period={self.period_s:.0f}s, readings={stored})"

    def observe(self, time: float) -> StationReading:
        """Take one reading at ``time`` now and append it to :attr:`readings`."""
        self.flush()
        truth = self.weather.sample(time)
        rng = self._rng
        temp = truth.temp_c + rng.normal(0.0, self.temp_error_std_c)
        rh = min(max(truth.rh_percent + rng.normal(0.0, self.rh_error_std), 0.0), 100.0)
        wind = max(0.0, truth.wind_ms + rng.normal(0.0, self.WIND_ERROR_STD_MS))
        solar = max(
            0.0, truth.solar_wm2 * (1.0 + rng.normal(0.0, self.SOLAR_ERROR_FRACTION))
        )
        reading = StationReading(time, temp, rh, wind, solar)
        self._readings.append(reading)
        return reading

    def attach(self, sim: Simulator, start: Optional[float] = None) -> None:
        """Start periodic observation on ``sim`` (first sample at ``start``)."""
        if self._next is not None:
            raise RuntimeError("station already attached to a simulator")
        self._sim = sim
        self._next = sim.now if start is None else start

    def detach(self) -> None:
        """Stop periodic observation."""
        self.flush()
        self._next = None

    def flush(self) -> None:
        """Take every observation due by the simulator's current time."""
        if self._next is None or self._next > self._sim.now:
            return
        now = self._sim.now
        times = []
        t = self._next
        while t <= now:
            times.append(t)
            t = t + self.period_s
        self._next = t
        grid = np.array(times)
        weather = self.weather
        temp = weather.temperature(grid)
        rh = relative_humidity_from_dewpoint(temp, weather.dewpoint(grid))
        # Per observation, normal(0, sigma) for temperature, RH, wind and
        # solar in that order: numpy computes each as 0.0 + sigma * z.
        sigma = np.array(
            [
                self.temp_error_std_c,
                self.rh_error_std,
                self.WIND_ERROR_STD_MS,
                self.SOLAR_ERROR_FRACTION,
            ]
        )
        noise = 0.0 + self._rng.standard_normal((len(times), 4)) * sigma
        # The comparisons mirror ``min``/``max`` of the scalar path.
        rh = rh + noise[:, 1]
        rh = np.where(rh < 0.0, 0.0, rh)
        rh = np.where(rh > 100.0, 100.0, rh)
        wind = weather.wind_speed(grid) + noise[:, 2]
        solar = weather.solar_irradiance(grid) * (1.0 + noise[:, 3])
        self._readings += map(
            StationReading,
            times,
            (temp + noise[:, 0]).tolist(),
            rh.tolist(),
            np.where(wind > 0.0, wind, 0.0).tolist(),
            np.where(solar > 0.0, solar, 0.0).tolist(),
        )

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        self.flush()
        return {
            "version": _STATE_VERSION,
            "next": self._next,
            "readings": self._packed.pack(self._readings),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore; a malformed blob raises :class:`StateError` and changes
        nothing.  :meth:`rebind` links the restored simulator."""
        with parsing("station"):
            check_version("station", state, _STATE_VERSION)
            restored = _READINGS.restore(state["readings"])
            next_time = state["next"]
            next_time = None if next_time is None else float(next_time)
        self._readings = restored
        self._next = next_time

    def rebind(self, sim: Simulator) -> None:
        """Observe on the restored engine's clock."""
        self._sim = sim

    # ------------------------------------------------------------------
    # Analysis accessors
    # ------------------------------------------------------------------
    @property
    def readings(self) -> List[StationReading]:
        """Every observation due so far, oldest first."""
        self.flush()
        return self._readings

    def times(self) -> np.ndarray:
        """Observation times as an array."""
        return np.array([r.time for r in self.readings])

    def temperatures(self) -> np.ndarray:
        """Observed temperatures as an array."""
        return np.array([r.temp_c for r in self.readings])

    def humidities(self) -> np.ndarray:
        """Observed relative humidities as an array."""
        return np.array([r.rh_percent for r in self.readings])
