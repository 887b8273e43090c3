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
from repro.sim.clock import MINUTE
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.rng import RngStreams
from repro.state.codec import pack_floats, unpack_floats
from repro.state.protocol import check_version

_STATE_VERSION = 1


@dataclass(frozen=True)
class StationReading:
    """One logged observation from the weather station."""

    time: float
    temp_c: float
    rh_percent: float
    wind_ms: float
    solar_wm2: float


class WeatherStation:
    """Periodic sampler of a :class:`WeatherGenerator` with instrument error.

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
        self.readings: List[StationReading] = []
        self._handle: Optional[PeriodicTask] = None
        self._sim: Optional[Simulator] = None
        self._restore_task_id: Optional[int] = None

    def __repr__(self) -> str:
        return f"WeatherStation(period={self.period_s:.0f}s, readings={len(self.readings)})"

    def observe(self, time: float) -> StationReading:
        """Take one reading at ``time`` and append it to :attr:`readings`."""
        truth = self.weather.sample(time)
        reading = StationReading(
            time=time,
            temp_c=truth.temp_c + self._rng.normal(0.0, self.temp_error_std_c),
            rh_percent=min(
                max(truth.rh_percent + self._rng.normal(0.0, self.rh_error_std), 0.0), 100.0
            ),
            wind_ms=max(0.0, truth.wind_ms + self._rng.normal(0.0, 0.1)),
            solar_wm2=max(0.0, truth.solar_wm2 * (1.0 + self._rng.normal(0.0, 0.02))),
        )
        self.readings.append(reading)
        return reading

    def attach(self, sim: Simulator, start: Optional[float] = None) -> None:
        """Start periodic observation on ``sim`` (first sample at ``start``)."""
        if self._handle is not None:
            raise RuntimeError("station already attached to a simulator")
        first = sim.now if start is None else start
        self.register_keys(sim)
        self._handle = sim.every_key(
            self.period_s, "station.observe", start=first, label="weather-station"
        )

    def detach(self) -> None:
        """Stop periodic observation."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def register_keys(self, sim: Simulator) -> None:
        """Bind this station's engine registry key on ``sim``."""
        self._sim = sim
        sim.register("station.observe", self._observe_now)

    def _observe_now(self) -> None:
        self.observe(self._sim.now)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": _STATE_VERSION,
            "task_id": self._handle.task_id if self._handle is not None else None,
            "readings": {
                "time": pack_floats([r.time for r in self.readings]),
                "temp_c": pack_floats([r.temp_c for r in self.readings]),
                "rh_percent": pack_floats([r.rh_percent for r in self.readings]),
                "wind_ms": pack_floats([r.wind_ms for r in self.readings]),
                "solar_wm2": pack_floats([r.solar_wm2 for r in self.readings]),
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        check_version("station", state, _STATE_VERSION)
        readings = state["readings"]
        self.readings = [
            StationReading(time=t, temp_c=c, rh_percent=rh, wind_ms=w, solar_wm2=s)
            for t, c, rh, w, s in zip(
                unpack_floats(readings["time"]),
                unpack_floats(readings["temp_c"]),
                unpack_floats(readings["rh_percent"]),
                unpack_floats(readings["wind_ms"]),
                unpack_floats(readings["solar_wm2"]),
            )
        ]
        self._restore_task_id = state["task_id"]

    def rebind(self, sim: Simulator) -> None:
        """Re-link the periodic task after the engine's state is loaded."""
        if self._restore_task_id is not None:
            self._handle = sim.periodic_task(int(self._restore_task_id))
            self._restore_task_id = None

    # ------------------------------------------------------------------
    # Analysis accessors
    # ------------------------------------------------------------------
    def times(self) -> np.ndarray:
        """Observation times as an array."""
        return np.array([r.time for r in self.readings])

    def temperatures(self) -> np.ndarray:
        """Observed temperatures as an array."""
        return np.array([r.temp_c for r in self.readings])

    def humidities(self) -> np.ndarray:
        """Observed relative humidities as an array."""
        return np.array([r.rh_percent for r in self.readings])
