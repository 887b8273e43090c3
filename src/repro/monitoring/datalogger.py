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

from repro.sim.clock import DAY, MINUTE
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.state.codec import ColumnStore, History
from repro.state.protocol import check_version, parsing
from repro.thermal.enclosure import Enclosure

#: Version 2 stores the position of the next sample's quiet step; version
#: 1 (a ``lascar.sample`` periodic task) is upgraded by
#: :mod:`repro.core.legacy`.
_STATE_VERSION = 2

#: Indoor office conditions the logger sees while being downloaded.
_INDOOR_TEMP_C = 21.5
_INDOOR_RH_PERCENT = 30.0


@dataclass(frozen=True)
class LoggerReading:
    """One stored sample."""

    time: float
    temp_c: float
    rh_percent: float


_READINGS = History(
    LoggerReading, [("time", float), ("temp_c", float), ("rh_percent", float)]
)


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


def _quantize_array(values: np.ndarray, step: float) -> np.ndarray:
    """:func:`_quantize` elementwise: ``rint`` rounds half to even like
    ``round``, and ``+ 0.0`` turns its ``-0.0`` into ``round``'s ``0.0``."""
    return np.rint(values / step) * step + 0.0


class LascarDataLogger:
    """EL-USB-2-LCD model: periodic sampling with error, resolution, removals.

    Attached to a simulator, the logger takes each sample as an engine
    quiet step (:meth:`Simulator.schedule_quiet`), so it reads the
    enclosure's intake exactly where a per-minute event would have: at
    an instant it shares with a thermal advance, it reads the intake
    after the advance only if the advance's event was queued first.  A
    quiet step only records the intake pair; the instrument error is
    drawn in batches of at least a simulated day, or sooner when
    something reads the samples (:attr:`readings`, the accessors,
    :meth:`state_dict`).  A batch is one ``normal`` draw of two values
    per sample, which leaves the ``lascar.noise`` stream exactly where
    per-sample draws would.

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
        self.removal_episodes: List[RemovalEpisode] = []
        self._readings = _READINGS.store()
        # Samples taken but not yet drawn: time and true intake pair.
        self._pending: List[float] = []
        self._batch = max(1, int(DAY // period_s))
        self._sim: Optional[Simulator] = None
        #: The next sample's quiet step while attached.
        self._next: Optional[list] = None
        self._restore_next: Optional[List[float]] = None

    def __repr__(self) -> str:
        taken = len(self._readings) + len(self._pending) // 3
        return (
            f"LascarDataLogger(readings={taken}, "
            f"removals={len(self.removal_episodes)})"
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _indoors(self, time: float) -> bool:
        return any(ep.covers(time) for ep in self.removal_episodes)

    def sample(self, time: float) -> Optional[LoggerReading]:
        """Record one sample at ``time`` now; ``None`` before the unit arrived."""
        if time < self.arrival_time:
            return None
        self.flush()
        if self._indoors(time):
            true_temp, true_rh = _INDOOR_TEMP_C, _INDOOR_RH_PERCENT
        else:
            true_temp = self.enclosure.intake_temp_c
            true_rh = self.enclosure.intake_rh_percent
        temp = _quantize(
            true_temp + self._rng.normal(0.0, self.temp_error_std_c), self.TEMP_RESOLUTION_C
        )
        rh = _quantize(true_rh + self._rng.normal(0.0, self.rh_error_std), self.RH_RESOLUTION)
        self._readings.append(time, temp, min(max(rh, 0.0), 100.0))
        return self.readings[-1]

    def attach(self, sim: Simulator) -> None:
        """Start periodic sampling (first sample at ``arrival_time``)."""
        if self._next is not None:
            raise RuntimeError("logger already attached")
        self._sim = sim
        self._next = sim.schedule_quiet(max(sim.now, self.arrival_time), self._take)

    def detach(self) -> None:
        """Stop sampling."""
        if self._next is not None:
            self._next[3] = None
            self._next = None

    def _take(self) -> None:
        """One periodic sample: keep the intake pair, draw later."""
        now = self._sim.now
        if now >= self.arrival_time:
            enclosure = self.enclosure
            self._pending += (now, enclosure.intake_temp_c, enclosure.intake_rh_percent)
            if len(self._pending) >= 3 * self._batch:
                self.flush()
        self._next = self._sim.schedule_quiet(now + self.period_s, self._take)

    def flush(self) -> None:
        """Draw the instrument error of every sample taken so far."""
        if not self._pending:
            return
        taken = np.array(self._pending).reshape(-1, 3)
        self._pending = []
        times = taken[:, 0]
        temps = taken[:, 1]
        rhs = taken[:, 2]
        for episode in self.removal_episodes:
            indoors = (times >= episode.start) & (times < episode.end)
            temps[indoors] = _INDOOR_TEMP_C
            rhs[indoors] = _INDOOR_RH_PERCENT
        # Per sample, normal(0, sigma) for the temperature then the RH:
        # numpy computes each as 0.0 + sigma * z.
        z = self._rng.standard_normal(2 * len(times))
        temps = _quantize_array(
            temps + (0.0 + self.temp_error_std_c * z[0::2]), self.TEMP_RESOLUTION_C
        )
        rhs = _quantize_array(
            rhs + (0.0 + self.rh_error_std * z[1::2]), self.RH_RESOLUTION
        )
        rhs = np.where(rhs < 0.0, 0.0, rhs)
        rhs = np.where(rhs > 100.0, 100.0, rhs)
        self._readings.extend(times, temps, rhs)

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        self.flush()
        return {
            "version": _STATE_VERSION,
            "next": self._restore_next if self._next is None else self._next[:3],
            "readings": self._readings.capture(),
            "removal_episodes": [
                [ep.start, ep.end] for ep in self.removal_episodes
            ],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore; a malformed blob raises :class:`StateError` and changes
        nothing.  The next sample is queued again by :meth:`rebind`."""
        with parsing("lascar"):
            check_version("lascar", state, _STATE_VERSION)
            readings = _READINGS.restore(state["readings"])
            episodes = [
                RemovalEpisode(start=float(start), end=float(end))
                for start, end in state["removal_episodes"]
            ]
            pending = state["next"]
            if pending is not None:
                time, seq, tie = pending
                pending = [float(time), int(seq), int(tie)]
        self.detach()
        self._readings = readings
        self._pending = []
        self.removal_episodes = episodes
        self._restore_next = pending

    def rebind(self, sim: Simulator) -> None:
        """Queue the restored next sample on the restored engine."""
        self._sim = sim
        pending, self._restore_next = self._restore_next, None
        if pending is not None:
            time, seq, tie = pending
            self._next = sim.schedule_quiet(time, self._take, position=(seq, tie))

    # ------------------------------------------------------------------
    # Download trips
    # ------------------------------------------------------------------
    def schedule_download_trip(self, start: float, duration_s: float = 30 * MINUTE) -> RemovalEpisode:
        """Plan a carry-indoors episode starting at ``start``.

        During the episode the logger keeps sampling -- but it samples the
        office, not the tent.  Those are the outliers the paper removed.
        Samples already taken keep the episodes they were taken under.
        """
        self.flush()
        episode = RemovalEpisode(start=start, end=start + duration_s)
        self.removal_episodes.append(episode)
        return episode

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def readings(self) -> ColumnStore:
        """Every stored sample, oldest first, as :class:`LoggerReading` rows."""
        self.flush()
        return self._readings

    def times(self) -> np.ndarray:
        """Sample times as a read-only array."""
        return self.readings.column("time")

    def temperatures(self) -> np.ndarray:
        """Logged temperatures as a read-only array."""
        return self.readings.column("temp_c")

    def humidities(self) -> np.ndarray:
        """Logged relative humidities as a read-only array."""
        return self.readings.column("rh_percent")

    def readings_during_removals(self) -> List[LoggerReading]:
        """Samples taken while the logger sat indoors (ground truth for tests)."""
        return [r for r in self.readings if self._indoors(r.time)]
