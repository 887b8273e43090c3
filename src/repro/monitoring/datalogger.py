"""The Lascar EL-USB-2-LCD data logger inside the tent.

Section 3.3 describes the instrument and its two quirks, both reproduced:

- spec-sheet accuracy of "+-0.5 degC, +-3.0 % RH typically", on top of the
  device's 0.5 degC / 0.5 % RH display resolution;
- it is "machine readable, although only by manually inserting the device
  into an USB port", so downloading data means unplugging it and carrying
  it indoors -- creating warm-indoor outlier stretches that the paper
  removed from its graphs (and that :mod:`repro.analysis.outliers`
  detects);
- it "arrived late": recording starts only at ``arrival_time``, which is
  why Figs. 3 and 4 miss the first weeks of inside data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.sim.clock import MINUTE
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.rng import RngStreams
from repro.state.codec import pack_floats, unpack_floats
from repro.state.protocol import check_version
from repro.thermal.enclosure import Enclosure

_STATE_VERSION = 1

#: Indoor office conditions the logger sees while being downloaded.
_INDOOR_TEMP_C = 21.5
_INDOOR_RH_PERCENT = 30.0


@dataclass(frozen=True)
class LoggerReading:
    """One stored sample."""

    time: float
    temp_c: float
    rh_percent: float


@dataclass(frozen=True)
class RemovalEpisode:
    """A stretch during which the logger sat indoors being downloaded."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("episode must have positive duration")

    def covers(self, time: float) -> bool:
        """Whether ``time`` falls inside the episode."""
        return self.start <= time < self.end


def _quantize(value: float, step: float) -> float:
    """Round to the device's display resolution."""
    return round(value / step) * step


class LascarDataLogger:
    """EL-USB-2-LCD model: periodic sampling with error, resolution, removals.

    Parameters
    ----------
    enclosure:
        What the logger hangs inside (the tent).
    streams:
        RNG family (uses the ``lascar.noise`` stream).
    arrival_time:
        First instant the device records (it arrived late).
    period_s:
        Sampling interval (the device logs once a minute at its default).
    temp_error_std_c / rh_error_std:
        1-sigma instrument error, set to half the spec's typical band.
    """

    TEMP_RESOLUTION_C = 0.5
    RH_RESOLUTION = 0.5

    def __init__(
        self,
        enclosure: Enclosure,
        streams: Optional[RngStreams] = None,
        arrival_time: float = 0.0,
        period_s: float = 1 * MINUTE,
        temp_error_std_c: float = 0.25,
        rh_error_std: float = 1.5,
    ) -> None:
        if period_s <= 0:
            raise ValueError("sampling period must be positive")
        self.enclosure = enclosure
        self.arrival_time = arrival_time
        self.period_s = period_s
        self.temp_error_std_c = temp_error_std_c
        self.rh_error_std = rh_error_std
        streams = streams if streams is not None else RngStreams(0)
        self._rng = streams.stream("lascar.noise")
        self.readings: List[LoggerReading] = []
        self.removal_episodes: List[RemovalEpisode] = []
        self._handle: Optional[PeriodicTask] = None
        self._sim: Optional[Simulator] = None
        self._restore_task_id: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"LascarDataLogger(readings={len(self.readings)}, "
            f"removals={len(self.removal_episodes)})"
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _indoors(self, time: float) -> bool:
        return any(ep.covers(time) for ep in self.removal_episodes)

    def sample(self, time: float) -> Optional[LoggerReading]:
        """Record one sample at ``time``; ``None`` before the unit arrived."""
        if time < self.arrival_time:
            return None
        if self._indoors(time):
            true_temp, true_rh = _INDOOR_TEMP_C, _INDOOR_RH_PERCENT
        else:
            true_temp = self.enclosure.intake_temp_c
            true_rh = self.enclosure.intake_rh_percent
        temp = _quantize(
            true_temp + self._rng.normal(0.0, self.temp_error_std_c), self.TEMP_RESOLUTION_C
        )
        rh = _quantize(true_rh + self._rng.normal(0.0, self.rh_error_std), self.RH_RESOLUTION)
        reading = LoggerReading(time=time, temp_c=temp, rh_percent=min(max(rh, 0.0), 100.0))
        self.readings.append(reading)
        return reading

    def attach(self, sim: Simulator) -> None:
        """Start periodic sampling (first sample at ``arrival_time``)."""
        if self._handle is not None:
            raise RuntimeError("logger already attached")
        start = max(sim.now, self.arrival_time)
        self.register_keys(sim)
        self._handle = sim.every_key(
            self.period_s, "lascar.sample", start=start, label="lascar"
        )

    def detach(self) -> None:
        """Stop sampling."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def register_keys(self, sim: Simulator) -> None:
        """Bind this logger's engine registry key on ``sim``."""
        self._sim = sim
        sim.register("lascar.sample", self._sample_now)

    def _sample_now(self) -> None:
        self.sample(self._sim.now)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": _STATE_VERSION,
            "task_id": self._handle.task_id if self._handle is not None else None,
            "readings": {
                "time": pack_floats([r.time for r in self.readings]),
                "temp_c": pack_floats([r.temp_c for r in self.readings]),
                "rh_percent": pack_floats([r.rh_percent for r in self.readings]),
            },
            "removal_episodes": [
                [ep.start, ep.end] for ep in self.removal_episodes
            ],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        check_version("lascar", state, _STATE_VERSION)
        readings = state["readings"]
        self.readings = [
            LoggerReading(time=t, temp_c=c, rh_percent=rh)
            for t, c, rh in zip(
                unpack_floats(readings["time"]),
                unpack_floats(readings["temp_c"]),
                unpack_floats(readings["rh_percent"]),
            )
        ]
        self.removal_episodes = [
            RemovalEpisode(start=float(s), end=float(e))
            for s, e in state["removal_episodes"]
        ]
        self._restore_task_id = state["task_id"]

    def rebind(self, sim: Simulator) -> None:
        """Re-link the periodic task after the engine's state is loaded."""
        if self._restore_task_id is not None:
            self._handle = sim.periodic_task(int(self._restore_task_id))
            self._restore_task_id = None

    # ------------------------------------------------------------------
    # Download trips
    # ------------------------------------------------------------------
    def schedule_download_trip(self, start: float, duration_s: float = 30 * MINUTE) -> RemovalEpisode:
        """Plan a carry-indoors episode starting at ``start``.

        During the episode the logger keeps sampling -- but it samples the
        office, not the tent.  Those are the outliers the paper removed.
        """
        episode = RemovalEpisode(start=start, end=start + duration_s)
        self.removal_episodes.append(episode)
        return episode

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def times(self) -> np.ndarray:
        """Sample times as an array."""
        return np.array([r.time for r in self.readings])

    def temperatures(self) -> np.ndarray:
        """Logged temperatures as an array."""
        return np.array([r.temp_c for r in self.readings])

    def humidities(self) -> np.ndarray:
        """Logged relative humidities as an array."""
        return np.array([r.rh_percent for r in self.readings])

    def readings_during_removals(self) -> List[LoggerReading]:
        """Samples taken while the logger sat indoors (ground truth for tests)."""
        return [r for r in self.readings if self._indoors(r.time)]
