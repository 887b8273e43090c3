"""Enclosures: where a host's intake air comes from.

Every host draws intake air from exactly one :class:`Enclosure`.  The
experiment advances each enclosure along simulated time; hosts then read
``intake_temp_c`` / ``intake_rh_percent`` when they need their thermal state.

Concrete enclosures:

- :class:`OutdoorAmbient` -- bare outside air (reference),
- :class:`PlasticBoxShelter` -- the prototype weekend's two plastic boxes,
  which "did not really impede air flow or contain any heat",
- :class:`BasementMachineRoom` -- the control group's shelter basement with
  stable office-type air conditioning,
- :class:`repro.thermal.tent.Tent` -- the real subject of the paper.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Dict, Optional, Tuple

from repro.climate.generator import WeatherGenerator
from repro.sim.clock import DAY
from repro.state.protocol import check_version
from repro.thermal.heatbalance import LumpedThermalNode, MoistureNode

_STATE_VERSION = 1

#: CRAC outage: an unconditioned machine room relaxes first-order toward
#: outside air plus this approach, with this time constant.
CRAC_TAU_S = 3600.0
CRAC_OUTAGE_APPROACH_C = 16.0


def crac_drift(
    temp_c: float, target_c: float, dt_s: float, recovering: bool, setpoint_c: float
) -> Tuple[float, bool]:
    """One step of a machine room whose CRAC is down or coming back.

    The room relaxes first-order toward ``target_c`` (outside air plus
    :data:`CRAC_OUTAGE_APPROACH_C` during an outage, the setpoint while
    recovering).  A recovering room snaps onto ``setpoint_c`` once
    within 0.05 degC.  Returns the new temperature and whether the room
    is still recovering.
    """
    blend = 1.0 - math.exp(-dt_s / CRAC_TAU_S) if dt_s > 0 else 0.0
    temp = temp_c + blend * (target_c - temp_c)
    if recovering and abs(temp - setpoint_c) < 0.05:
        return setpoint_c, False
    return temp, recovering


class Enclosure(abc.ABC):
    """Base class: a source of intake air for hosts.

    Subclasses maintain ``intake_temp_c`` and ``intake_rh_percent`` and
    update them in :meth:`advance`.  ``it_load_w`` is the total electrical
    power currently dissipated inside the enclosure; the fleet updates it
    whenever hosts start, stop, or change load.
    """

    #: Fraction of falling precipitation the enclosure keeps off the
    #: hardware (1.0 = fully shielded, 0.0 = bare sky).
    precipitation_protection: float = 1.0

    def __init__(self, name: str, weather: WeatherGenerator) -> None:
        self.name = name
        self.weather = weather
        self.it_load_w = 0.0
        #: DVFS/server-fan power scale commanded by the control plane's
        #: actuator bus (which also persists it); 1.0 = rated draw.
        self.it_load_scale = 1.0
        self.intake_temp_c = 0.0
        self.intake_rh_percent = 50.0
        #: Water reaching the equipment right now (mm/h).
        self.intake_precip_mm_h = 0.0
        self._last_time: Optional[float] = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, intake={self.intake_temp_c:.1f}degC, "
            f"RH={self.intake_rh_percent:.0f}%, load={self.it_load_w:.0f}W)"
        )

    def set_it_load(self, watts: float) -> None:
        """Update the dissipated IT load (W)."""
        if watts < 0:
            raise ValueError("IT load cannot be negative")
        # Guarded multiply: the untouched default must stay IEEE
        # byte-identical to the pre-DVFS load path.
        if self.it_load_scale != 1.0:
            watts *= self.it_load_scale
        self.it_load_w = watts

    def advance(self, time: float) -> None:
        """Advance internal state to simulated ``time``.

        Time must be non-decreasing across calls.
        """
        if self._last_time is not None and time < self._last_time - 1e-9:
            raise ValueError(
                f"enclosure {self.name!r} advanced backwards: "
                f"{self._last_time:.1f} -> {time:.1f}"
            )
        dt = 0.0 if self._last_time is None else time - self._last_time
        self._update(time, dt)
        leak = 1.0 - self.precipitation_protection
        if leak > 0.0:
            self.intake_precip_mm_h = leak * float(self.weather.precipitation(time))
        else:
            self.intake_precip_mm_h = 0.0
        self._last_time = time

    @abc.abstractmethod
    def _update(self, time: float, dt_s: float) -> None:
        """Subclass hook: recompute intake conditions at ``time``."""

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Intake conditions plus whatever the subclass integrates."""
        return {
            "version": _STATE_VERSION,
            "it_load_w": self.it_load_w,
            "intake_temp_c": self.intake_temp_c,
            "intake_rh_percent": self.intake_rh_percent,
            "intake_precip_mm_h": self.intake_precip_mm_h,
            "last_time": self._last_time,
            "extra": self._extra_state(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        check_version(f"enclosure.{self.name}", state, _STATE_VERSION)
        self.it_load_w = float(state["it_load_w"])
        self.intake_temp_c = float(state["intake_temp_c"])
        self.intake_rh_percent = float(state["intake_rh_percent"])
        self.intake_precip_mm_h = float(state["intake_precip_mm_h"])
        self._last_time = (
            None if state["last_time"] is None else float(state["last_time"])
        )
        self._load_extra_state(state["extra"])

    def _extra_state(self) -> Dict[str, Any]:
        """Subclass hook: integrator state beyond the intake conditions."""
        return {}

    def _load_extra_state(self, extra: Dict[str, Any]) -> None:
        """Subclass hook mirroring :meth:`_extra_state`."""


class OutdoorAmbient(Enclosure):
    """No enclosure at all: intake air is the outside air -- and so is
    the outside snow, which is why nobody runs servers like this."""

    precipitation_protection = 0.0

    def _update(self, time: float, dt_s: float) -> None:
        sample = self.weather.sample(time)
        self.intake_temp_c = sample.temp_c
        self.intake_rh_percent = sample.rh_percent


class PlasticBoxShelter(Enclosure):
    """The prototype's sandwich of two hard plastic boxes.

    A nearly transparent enclosure: large effective conductance, tiny
    thermal mass, a whisper of solar gain -- but it does its one job,
    keeping snow off the computer internals (a sliver blows in sideways).
    With one ~90 W PC inside, the steady-state excess over outside air is
    only one or two degrees, which is how the prototype's CPU could report
    -4 degC during a -9 degC weekend (case excess plus the CPU's own rise
    over intake).
    """

    precipitation_protection = 0.97

    def __init__(
        self,
        name: str,
        weather: WeatherGenerator,
        ua_w_per_k: float = 55.0,
        capacity_j_per_k: float = 9000.0,
        solar_aperture_m2: float = 0.15,
    ) -> None:
        super().__init__(name, weather)
        self.ua_w_per_k = ua_w_per_k
        self.solar_aperture_m2 = solar_aperture_m2
        first = weather.sample(weather.start_time)
        self._node = LumpedThermalNode(capacity_j_per_k, first.temp_c)
        self._moisture = MoistureNode(first.temp_c, first.rh_percent)
        self.intake_temp_c = first.temp_c
        self.intake_rh_percent = first.rh_percent

    def _update(self, time: float, dt_s: float) -> None:
        sample = self.weather.sample(time)
        solar_w = self.solar_aperture_m2 * sample.solar_wm2
        self._node.step(dt_s, self.it_load_w + solar_w, self.ua_w_per_k, sample.temp_c)
        # The boxes barely slow air exchange: ~40 air changes/hour.
        self._moisture.step(dt_s, 40.0, sample.temp_c, sample.rh_percent)
        self.intake_temp_c = self._node.temp_c
        self.intake_rh_percent = self._moisture.relative_humidity(self._node.temp_c)

    def _extra_state(self) -> Dict[str, Any]:
        return {
            "node_temp_c": self._node.temp_c,
            "vapor_g_m3": self._moisture.vapor_g_m3,
        }

    def _load_extra_state(self, extra: Dict[str, Any]) -> None:
        self._node.temp_c = float(extra["node_temp_c"])
        self._moisture.vapor_g_m3 = float(extra["vapor_g_m3"])


class BasementMachineRoom(Enclosure):
    """The control group's basement shelter with office-type conditioning.

    The paper: "the control group operates in a very sparsely furnished
    environment with stable, office-type air conditioning.  The operating
    conditions are therefore well within specifications."  The CRAC holds a
    setpoint regardless of the (small) IT load; only a faint diurnal wiggle
    remains.

    The chaos plane can take the CRAC away (:meth:`fail_crac`): the room
    then relaxes first-order toward outside air plus an approach offset;
    after :meth:`repair_crac` it relaxes back and snaps onto the setpoint
    curve.  While the CRAC is healthy the update stays the pure analytic
    setpoint expression, byte-identical to the historical model.
    """

    def __init__(
        self,
        name: str,
        weather: WeatherGenerator,
        setpoint_c: float = 21.0,
        setpoint_rh_percent: float = 32.0,
        diurnal_wiggle_c: float = 0.4,
        diurnal_wiggle_rh: float = 2.0,
    ) -> None:
        super().__init__(name, weather)
        self.setpoint_c = setpoint_c
        self.setpoint_rh_percent = setpoint_rh_percent
        self.diurnal_wiggle_c = diurnal_wiggle_c
        self.diurnal_wiggle_rh = diurnal_wiggle_rh
        self.intake_temp_c = setpoint_c
        self.intake_rh_percent = setpoint_rh_percent
        self._crac_failed = False
        self._crac_recovering = False

    def fail_crac(self, time: float) -> None:
        """The CRAC stops; the room starts drifting toward outside air."""
        self._crac_failed = True
        self._crac_recovering = False

    def repair_crac(self, time: float) -> None:
        """The CRAC returns; the room relaxes back to setpoint."""
        if self._crac_failed:
            self._crac_failed = False
            self._crac_recovering = True

    @property
    def crac_operational(self) -> bool:
        return not self._crac_failed

    def _update(self, time: float, dt_s: float) -> None:
        phase = 2.0 * math.pi * (time % DAY) / DAY
        setpoint = self.setpoint_c + self.diurnal_wiggle_c * math.sin(phase)
        if self._crac_failed:
            target = self.weather.sample(time).temp_c + CRAC_OUTAGE_APPROACH_C
            self.intake_temp_c, _ = crac_drift(
                self.intake_temp_c, target, dt_s, False, setpoint
            )
        elif self._crac_recovering:
            self.intake_temp_c, self._crac_recovering = crac_drift(
                self.intake_temp_c, setpoint, dt_s, True, setpoint
            )
        else:
            self.intake_temp_c = setpoint
        self.intake_rh_percent = self.setpoint_rh_percent + self.diurnal_wiggle_rh * math.sin(
            phase + 1.0
        )

    def _extra_state(self) -> Dict[str, Any]:
        if not (self._crac_failed or self._crac_recovering):
            return {}
        return {"crac_failed": self._crac_failed, "crac_recovering": self._crac_recovering}

    def _load_extra_state(self, extra: Dict[str, Any]) -> None:
        self._crac_failed = bool(extra.get("crac_failed", False))
        self._crac_recovering = bool(extra.get("crac_recovering", False))
