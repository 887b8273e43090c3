"""The terrace webcam.

Footnote 1 of the paper: "An hourly webcam image of the terrace (with the
tent) is available at http://www.cs.helsinki.fi/Exactum-kamera/".  The
webcam was the experiment's only *visual* instrument -- the operators
could glance at it to see daylight, snowfall on the tent, and whether the
tent was still standing.

The model produces one frame's worth of metadata per hour: scene
brightness (driven by solar irradiance), a snowfall flag, and snow-cover
on the tent fabric (accumulating during sub-zero precipitation, ablating
in sun and warmth).  The analysis value is cross-validation: brightness
must track the weather generator's solar series, giving an instrument
that is independent of the thermal chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.climate.generator import WeatherGenerator
from repro.sim.clock import HOUR
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.rng import RngStreams
from repro.state.codec import History
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1

#: Solar irradiance that saturates the camera's auto-exposure.
_FULL_BRIGHT_WM2 = 350.0
#: Snow-cover ablation rates (fraction per hour).
_MELT_RATE_WARM = 0.25
_MELT_RATE_SUN = 0.10


@dataclass(frozen=True)
class WebcamFrame:
    """Metadata extracted from one hourly frame."""

    time: float
    brightness: float  # [0, 1]: night to overexposed noon
    snowing: bool
    tent_snow_cover: float  # [0, 1] fraction of fabric under snow

    def __post_init__(self) -> None:
        if not 0.0 <= self.brightness <= 1.0:
            raise ValueError("brightness must be in [0, 1]")
        if not 0.0 <= self.tent_snow_cover <= 1.0:
            raise ValueError("snow cover must be in [0, 1]")

    @property
    def night(self) -> bool:
        """Too dark to see the tent."""
        return self.brightness < 0.05


_FRAMES = History(
    WebcamFrame,
    [
        ("time", float),
        ("brightness", float),
        ("snowing", bool),
        ("tent_snow_cover", float),
    ],
)


class TerraceWebcam:
    """Hourly frame-metadata producer for the roof terrace.

    Parameters
    ----------
    weather:
        The atmosphere in view.
    streams:
        RNG family (uses the ``webcam.noise`` stream for exposure jitter).
    period_s:
        Frame cadence; the real camera shot hourly.
    """

    def __init__(
        self,
        weather: WeatherGenerator,
        streams: Optional[RngStreams] = None,
        period_s: float = HOUR,
    ) -> None:
        if period_s <= 0:
            raise ValueError("frame period must be positive")
        self.weather = weather
        self.period_s = period_s
        streams = streams if streams is not None else RngStreams(0)
        self._rng = streams.stream("webcam.noise")
        self.frames: List[WebcamFrame] = []
        self._packed_frames = _FRAMES.packer()
        self._snow_cover = 0.0
        self._last_time: Optional[float] = None
        self._handle: Optional[PeriodicTask] = None
        self._sim: Optional[Simulator] = None
        self._restore_task_id: Optional[int] = None

    def __repr__(self) -> str:
        return f"TerraceWebcam(frames={len(self.frames)})"

    # ------------------------------------------------------------------
    def capture(self, time: float) -> WebcamFrame:
        """Shoot one frame at ``time`` and append it."""
        sample = self.weather.sample(time)
        dt_h = 0.0 if self._last_time is None else (time - self._last_time) / HOUR
        self._advance_snow_cover(sample, dt_h)
        self._last_time = time

        exposure = min(1.0, sample.solar_wm2 / _FULL_BRIGHT_WM2)
        jitter = 1.0 + self._rng.normal(0.0, 0.03)
        frame = WebcamFrame(
            time=time,
            brightness=min(max(exposure * jitter, 0.0), 1.0),
            snowing=sample.snowing,
            tent_snow_cover=self._snow_cover,
        )
        self.frames.append(frame)
        return frame

    def _advance_snow_cover(self, sample, dt_h: float) -> None:
        if dt_h <= 0:
            return
        if sample.snowing:
            # Fresh snow settles on the fabric (saturating accumulation).
            gain = 0.15 * sample.precip_mm_h * dt_h
            self._snow_cover = min(1.0, self._snow_cover + gain)
        else:
            melt = 0.0
            if sample.temp_c > 0.0:
                melt += _MELT_RATE_WARM * dt_h
            if sample.solar_wm2 > 50.0:
                melt += _MELT_RATE_SUN * dt_h
            self._snow_cover = max(0.0, self._snow_cover - melt)

    def attach(self, sim: Simulator, start: Optional[float] = None) -> None:
        """Start the hourly capture loop."""
        if self._handle is not None:
            raise RuntimeError("webcam already attached")
        first = sim.now if start is None else start
        self.register_keys(sim)
        self._handle = sim.every_key(
            self.period_s, "webcam.capture", start=first, label="webcam"
        )

    def detach(self) -> None:
        """Stop capturing."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def register_keys(self, sim: Simulator) -> None:
        """Bind this camera's engine registry key on ``sim``."""
        self._sim = sim
        sim.register("webcam.capture", self._capture_now)

    def _capture_now(self) -> None:
        self.capture(self._sim.now)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": _STATE_VERSION,
            "task_id": self._handle.task_id if self._handle is not None else None,
            "snow_cover": self._snow_cover,
            "last_time": self._last_time,
            "frames": self._packed_frames.pack(self.frames),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        with parsing("webcam"):
            check_version("webcam", state, _STATE_VERSION)
            snow_cover = float(state["snow_cover"])
            last_time = state["last_time"]
            last_time = None if last_time is None else float(last_time)
            frames = _FRAMES.restore(state["frames"])
            task_id = state["task_id"]
            task_id = None if task_id is None else int(task_id)
        self._snow_cover = snow_cover
        self._last_time = last_time
        self.frames = frames
        self._restore_task_id = task_id

    def rebind(self, sim: Simulator) -> None:
        """Re-link the periodic task after the engine's state is loaded."""
        if self._restore_task_id is not None:
            self._handle = sim.periodic_task(self._restore_task_id)
            self._restore_task_id = None

    # ------------------------------------------------------------------
    # Analysis accessors
    # ------------------------------------------------------------------
    def times(self) -> np.ndarray:
        """Frame times."""
        return np.array([f.time for f in self.frames])

    def brightness_series(self) -> np.ndarray:
        """Brightness per frame."""
        return np.array([f.brightness for f in self.frames])

    def snowfall_frames(self) -> List[WebcamFrame]:
        """Frames during which it was snowing."""
        return [f for f in self.frames if f.snowing]

    def daylight_fraction(self) -> float:
        """Fraction of frames with a visible (non-night) scene."""
        if not self.frames:
            return 0.0
        return sum(1 for f in self.frames if not f.night) / len(self.frames)
