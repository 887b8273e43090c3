"""The lm-sensors motherboard sensor chip and its cold failure mode.

Section 4.2.1 documents a precise failure sequence on the longest-running
tent host after its -22 degC episode:

1. the chip reports plausible sub-zero CPU temperatures (below -4 degC),
2. then "clearly erroneous readings of -111 degC",
3. an attempted re-detection makes the chip disappear from the bus,
4. a *warm reboot* a week later restores it, with no recurrence.

:class:`SensorChip` is that state machine.  Cold exposure below a latch
threshold accrues a hazard of entering the ERRATIC state; re-detection from
ERRATIC transitions to UNDETECTED (exactly the paper's "the opposite
resulted"); a warm reboot always recovers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.hardware.faults import HazardMemo
from repro.state.codec import History
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1

#: Readings at/below this are physically implausible for a powered CPU and
#: mark the chip as erratic in the monitoring pipeline.
ERRONEOUS_READING_C = -111.0


class SensorState(enum.Enum):
    """Lifecycle of the sensor chip."""

    OK = "ok"
    ERRATIC = "erratic"  # reports -111 degC
    UNDETECTED = "undetected"  # gone from the bus after re-detection


@dataclass(frozen=True)
class SensorReading:
    """One polled value, or ``None`` if the chip is off the bus."""

    time: float
    cpu_temp_c: Optional[float]
    state: SensorState

    @property
    def plausible(self) -> bool:
        """False for the -111 degC erratic readings and for absent chips."""
        return self.cpu_temp_c is not None and self.cpu_temp_c > -60.0


#: A checkpoint stores each reading's state as its index in the tuple,
#: so the tuple is part of the format: extend it, never reorder it.
_HISTORY = History(
    SensorReading,
    [
        ("time", float),
        ("cpu_temp_c", Optional[float]),
        ("state", (SensorState.OK, SensorState.ERRATIC, SensorState.UNDETECTED)),
    ],
)


class SensorChip:
    """Motherboard sensor chip with a cold-latch failure mode.

    Parameters
    ----------
    rng:
        This chip's fault stream.
    latch_threshold_c:
        Die temperatures below this accrue latch-up hazard.  The paper's
        chip failed after logging "below -4 degC", so the default threshold
        sits just under that.
    latch_rate_per_hour:
        Hazard rate while below the threshold.
    noise_std_c:
        Gaussian read noise of a healthy chip.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        latch_threshold_c: float = -3.0,
        latch_rate_per_hour: float = 0.035,
        noise_std_c: float = 0.5,
    ) -> None:
        self._rng = rng
        self.latch_threshold_c = latch_threshold_c
        self.latch_rate_per_hour = latch_rate_per_hour
        self.noise_std_c = noise_std_c
        self.state = SensorState.OK
        self.cold_exposure_s = 0.0
        self.history = _HISTORY.store()  # SensorReading rows
        self.latch_time: Optional[float] = None
        self._latch_hazard = HazardMemo()

    def __repr__(self) -> str:
        return (
            f"SensorChip(state={self.state.value}, "
            f"cold_exposure={self.cold_exposure_s / 3600.0:.1f}h)"
        )

    # ------------------------------------------------------------------
    # Exposure and failure dynamics
    # ------------------------------------------------------------------
    def exposure_step(self, die_temp_c: float, dt_s: float, time: float) -> None:
        """Advance ``dt_s`` seconds of operation at ``die_temp_c``.

        While healthy and below the latch threshold, the chip may latch
        into the ERRATIC state.
        """
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        if self.state is not SensorState.OK:
            return
        if die_temp_c < self.latch_threshold_c:
            self.cold_exposure_s += dt_s
            p = self._latch_hazard.probability(self.latch_rate_per_hour, dt_s)
            if self._rng.random() < p:
                self.state = SensorState.ERRATIC
                self.latch_time = time

    def read(self, true_cpu_temp_c: float, time: float) -> Optional[float]:
        """Poll the chip (what the 20-minute monitoring round does): the
        reported temperature, ``None`` off the bus, also logged in :attr:`history`."""
        if self.state is SensorState.OK:
            value: Optional[float] = true_cpu_temp_c + self._rng.normal(0.0, self.noise_std_c)
        elif self.state is SensorState.ERRATIC:
            value = ERRONEOUS_READING_C
        else:
            value = None
        self.history.append(time, value, self.state)
        return value

    # ------------------------------------------------------------------
    # Operator actions
    # ------------------------------------------------------------------
    def redetect(self) -> SensorState:
        """Try to re-detect the chip on the bus.

        The paper: "we tried to redetect the sensor chip with hopes of
        resetting its internal readings.  Instead, the opposite resulted,
        and the sensor chip ceased to be detected at all."  Re-detecting an
        erratic chip therefore always loses it; re-detecting a healthy or
        absent chip changes nothing.
        """
        if self.state is SensorState.ERRATIC:
            self.state = SensorState.UNDETECTED
        return self.state

    def warm_reboot(self) -> SensorState:
        """A warm system reboot restores the chip (as it did in the paper)."""
        self.state = SensorState.OK
        self.cold_exposure_s = 0.0
        return self.state

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Latch state plus the full reading history as packed columns.

        The history is the biggest per-host series in a checkpoint (one
        row per 20-minute poll), hence the columnar encoding.
        """
        return {
            "version": _STATE_VERSION,
            "state": self.state.value,
            "cold_exposure_s": self.cold_exposure_s,
            "latch_time": self.latch_time,
            "history": self.history.capture(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.parse_state(state)()

    def parse_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """Parse a blob into the call that assigns it, or raise :class:`StateError`."""
        with parsing("sensor"):
            check_version("sensor", state, _STATE_VERSION)
            chip_state = SensorState(state["state"])
            cold_exposure_s = float(state["cold_exposure_s"])
            latch_time = state["latch_time"]
            latch_time = None if latch_time is None else float(latch_time)
            history = _HISTORY.restore(state["history"])

        def load() -> None:
            self.state = chip_state
            self.cold_exposure_s = cold_exposure_s
            self.latch_time = latch_time
            self.history = history

        return load

    # ------------------------------------------------------------------
    # Census helpers
    # ------------------------------------------------------------------
    @property
    def ever_latched(self) -> bool:
        """Whether the chip entered the erratic state at any point."""
        return self.latch_time is not None

    def erroneous_reading_count(self) -> int:
        """Number of logged -111 degC readings."""
        temps = self.history.column("cpu_temp_c")
        return int(np.count_nonzero(temps <= ERRONEOUS_READING_C + 1e-9))
