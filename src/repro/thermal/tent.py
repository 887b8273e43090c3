"""The tent: a three-person camping tent sheltering nine computers.

The paper (Section 3.2) describes a tube-shaped, double-layered polyester
tent that turned out to be "surprisingly good at retaining heat", forcing a
series of modifications, marked in Fig. 3 as

- ``R`` -- partial reflective foil cover (rescue-sheet material) cutting
  solar gain,
- ``I`` -- the inner tent fabric cut open and removed,
- ``B`` -- the protective bottom tarpaulin partially removed, letting cool
  air circulate up through the elevated terrace floor,
- ``F`` -- a standard tabletop motorised fan installed,

plus leaving the outer front door half-open.  Each modification raises the
effective envelope conductance and ventilation rate; the foil lowers solar
gain.  The four factors the paper lists for inside temperature -- outside
air, sun and wind, equipment power, and flap configuration -- are exactly
the terms of the heat balance here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.climate.generator import WeatherGenerator
from repro.thermal.enclosure import Enclosure
from repro.thermal.heatbalance import LumpedThermalNode, MoistureNode


class Modification(enum.Enum):
    """The heat-shedding interventions marked beneath the paper's Fig. 3."""

    REFLECTIVE_FOIL = "R"
    INNER_TENT_REMOVED = "I"
    BOTTOM_TARP_REMOVED = "B"
    FAN_INSTALLED = "F"
    DOOR_HALF_OPEN = "D"  # mentioned in the text, not lettered in Fig. 3

    @property
    def letter(self) -> str:
        """The single-letter code used under Fig. 3."""
        return self.value


@dataclass(frozen=True)
class TentEnvelope:
    """Envelope configuration and the thermal parameters it implies.

    The baseline tent is nearly sealed: a small conductance dominated by
    fabric conduction, little ventilation, and the full solar cross-section
    of dark fabric.  Modifications multiply conductance and ventilation and
    scale solar absorption.
    """

    reflective_foil: bool = False
    inner_tent_removed: bool = False
    bottom_tarp_removed: bool = False
    fan_installed: bool = False
    door_half_open: bool = False

    #: Sealed-tent envelope conductance, W/K.  Calibrated so that three
    #: freshly installed vendor-A hosts (~255 W) keep the sealed tent about
    #: ten degrees above outside air -- warm enough to alarm the operators,
    #: cold enough that the -22 degC episode still drives tent CPUs below
    #: the -4 degC the paper's lm-sensors logged.
    base_ua_w_per_k: float = 20.0
    #: Wind multiplier: UA grows (1 + coefficient * wind m/s).
    wind_ua_coefficient: float = 0.10
    #: Effective solar aperture of the fabric, m^2.
    solar_aperture_m2: float = 1.2
    #: Fabric absorptivity without foil.
    solar_absorptivity: float = 0.65
    #: Fraction of solar gain remaining under the partial foil cover.
    foil_transmission: float = 0.35
    #: Sealed-tent ventilation, air changes per hour.
    base_ach: float = 2.5

    _UA_FACTORS: Tuple[Tuple[str, float], ...] = (
        ("inner_tent_removed", 1.9),
        ("bottom_tarp_removed", 1.8),
        ("fan_installed", 1.5),
        ("door_half_open", 1.35),
    )
    _ACH_FACTORS: Tuple[Tuple[str, float], ...] = (
        ("inner_tent_removed", 2.0),
        ("bottom_tarp_removed", 2.5),
        ("fan_installed", 3.0),
        ("door_half_open", 1.8),
    )

    def __post_init__(self) -> None:
        # The flags are frozen, so the still-air products are priced once
        # per instance (``replace`` builds a new one and prices it again).
        ua = self.base_ua_w_per_k
        for flag, factor in self._UA_FACTORS:
            if getattr(self, flag):
                ua *= factor
        ach = self.base_ach
        for flag, factor in self._ACH_FACTORS:
            if getattr(self, flag):
                ach *= factor
        object.__setattr__(self, "_still_ua", ua)
        object.__setattr__(self, "_still_ach", ach)

    def with_modification(self, mod: Modification) -> "TentEnvelope":
        """A copy with one modification applied (idempotent)."""
        flag = {
            Modification.REFLECTIVE_FOIL: "reflective_foil",
            Modification.INNER_TENT_REMOVED: "inner_tent_removed",
            Modification.BOTTOM_TARP_REMOVED: "bottom_tarp_removed",
            Modification.FAN_INSTALLED: "fan_installed",
            Modification.DOOR_HALF_OPEN: "door_half_open",
        }[mod]
        return replace(self, **{flag: True})

    def ua_w_per_k(self, wind_ms: float) -> float:
        """Envelope conductance at the given wind speed."""
        return self._still_ua * (1.0 + self.wind_ua_coefficient * max(0.0, wind_ms))

    def air_changes_per_hour(self, wind_ms: float) -> float:
        """Ventilation rate at the given wind speed."""
        return self._still_ach * (1.0 + 0.15 * max(0.0, wind_ms))

    def solar_gain_w(self, irradiance_wm2: float) -> float:
        """Heat input from sunlight on the fabric."""
        gain = self.solar_aperture_m2 * self.solar_absorptivity * max(0.0, irradiance_wm2)
        if self.reflective_foil:
            gain *= self.foil_transmission
        return gain

    def active_modifications(self) -> List[Modification]:
        """Modifications currently applied, in Fig. 3 letter order."""
        order = (
            (Modification.REFLECTIVE_FOIL, self.reflective_foil),
            (Modification.INNER_TENT_REMOVED, self.inner_tent_removed),
            (Modification.BOTTOM_TARP_REMOVED, self.bottom_tarp_removed),
            (Modification.FAN_INSTALLED, self.fan_installed),
            (Modification.DOOR_HALF_OPEN, self.door_half_open),
        )
        return [mod for mod, active in order if active]


class ModifiableEnvelopeMixin:
    """Shared modification bookkeeping for tent-like enclosures.

    Both the campaign's single-node :class:`Tent` and the fidelity-check
    :class:`~repro.thermal.twonode.TwoNodeTent` carry a
    :class:`TentEnvelope` and receive the same R/I/B/F interventions; the
    mixin provides the apply/log machinery so either can serve as the
    experiment's tent.
    """

    envelope: TentEnvelope

    def _init_modifications(self) -> None:
        #: ``(time, Modification)`` log of applied interventions.
        self.modification_log: List[Tuple[float, Modification]] = []
        #: Plant-fault airflow multipliers (chaos plane): a dead blower
        #: or blocked intake scales conductance/ventilation below 1.0,
        #: the emergency flap above it.  1.0 = healthy plant; the update
        #: loops skip the multiply entirely then, so an unconfigured
        #: plant leaves the thermal trace byte-identical.
        self.plant_ua_factor: float = 1.0
        self.plant_ach_factor: float = 1.0

    def set_plant_airflow(self, ua_factor: float, ach_factor: float) -> None:
        """Set the chaos plane's airflow degradation (1.0/1.0 = healthy)."""
        if ua_factor <= 0.0 or ach_factor <= 0.0:
            raise ValueError("airflow factors must be positive")
        self.plant_ua_factor = float(ua_factor)
        self.plant_ach_factor = float(ach_factor)

    def apply_modification(self, mod: Modification, time: float) -> None:
        """Apply one intervention (the paper's R/I/B/F events) at ``time``."""
        self.envelope = self.envelope.with_modification(mod)
        self.modification_log.append((time, mod))

    def modification_times(self) -> Dict[str, float]:
        """Map of Fig. 3 letter -> first application time."""
        times: Dict[str, float] = {}
        for time, mod in self.modification_log:
            times.setdefault(mod.letter, time)
        return times

    # ------------------------------------------------------------------
    # Snapshot support shared by both tent models
    # ------------------------------------------------------------------
    def _envelope_state(self) -> Dict[str, Any]:
        """The mutable part of the envelope (the five flags) plus the log.

        The thermal parameters are construction-fixed; restore re-applies
        the flags onto the reconstructed envelope with ``replace``.
        """
        return {
            "flags": {
                "reflective_foil": self.envelope.reflective_foil,
                "inner_tent_removed": self.envelope.inner_tent_removed,
                "bottom_tarp_removed": self.envelope.bottom_tarp_removed,
                "fan_installed": self.envelope.fan_installed,
                "door_half_open": self.envelope.door_half_open,
            },
            "log": [[time, mod.value] for time, mod in self.modification_log],
            "plant": [self.plant_ua_factor, self.plant_ach_factor],
        }

    def _load_envelope_state(self, state: Dict[str, Any]) -> None:
        self.envelope = replace(
            self.envelope, **{k: bool(v) for k, v in state["flags"].items()}
        )
        self.modification_log = [
            (float(time), Modification(letter)) for time, letter in state["log"]
        ]
        plant = state.get("plant", [1.0, 1.0])
        self.plant_ua_factor = float(plant[0])
        self.plant_ach_factor = float(plant[1])


class Tent(ModifiableEnvelopeMixin, Enclosure):
    """The roof-terrace tent as a heat-and-moisture balance.

    Parameters
    ----------
    name:
        Enclosure label (e.g. ``"tent"``).
    weather:
        The synthetic atmosphere.
    envelope:
        Initial configuration (default: factory-fresh sealed tent).
    capacity_j_per_k:
        Effective thermal mass (air volume plus fast-coupled equipment and
        fabric mass).
    """

    def __init__(
        self,
        name: str,
        weather: WeatherGenerator,
        envelope: Optional[TentEnvelope] = None,
        capacity_j_per_k: float = 90_000.0,
    ) -> None:
        super().__init__(name, weather)
        self.envelope = envelope if envelope is not None else TentEnvelope()
        first = weather.sample(weather.start_time)
        self._node = LumpedThermalNode(capacity_j_per_k, first.temp_c)
        self._moisture = MoistureNode(first.temp_c, first.rh_percent)
        self.intake_temp_c = first.temp_c
        self.intake_rh_percent = first.rh_percent
        self._init_modifications()

    # ------------------------------------------------------------------
    def _update(self, time: float, dt_s: float) -> None:
        sample = self.weather.sample(time)
        ua = self.envelope.ua_w_per_k(sample.wind_ms)
        if self.plant_ua_factor != 1.0:
            ua *= self.plant_ua_factor
        heat_in = self.it_load_w + self.envelope.solar_gain_w(sample.solar_wm2)
        self._node.step(dt_s, heat_in, ua, sample.temp_c)
        ach = self.envelope.air_changes_per_hour(sample.wind_ms)
        if self.plant_ach_factor != 1.0:
            ach *= self.plant_ach_factor
        self._moisture.step(dt_s, ach, sample.temp_c, sample.rh_percent)
        self.intake_temp_c = self._node.temp_c
        self.intake_rh_percent = self._moisture.relative_humidity(self._node.temp_c)

    # ------------------------------------------------------------------
    # Snapshot protocol (extends the Enclosure base state)
    # ------------------------------------------------------------------
    def _extra_state(self) -> Dict[str, Any]:
        return {
            "node_temp_c": self._node.temp_c,
            "vapor_g_m3": self._moisture.vapor_g_m3,
            "envelope": self._envelope_state(),
        }

    def _load_extra_state(self, extra: Dict[str, Any]) -> None:
        self._node.temp_c = float(extra["node_temp_c"])
        self._moisture.vapor_g_m3 = float(extra["vapor_g_m3"])
        self._load_envelope_state(extra["envelope"])

    # ------------------------------------------------------------------
    # Introspection used by tests and the ablation benchmarks
    # ------------------------------------------------------------------
    def steady_state_excess_c(self, wind_ms: float, irradiance_wm2: float = 0.0) -> float:
        """Equilibrium inside-minus-outside temperature for current forcing."""
        ua = self.envelope.ua_w_per_k(wind_ms)
        heat_in = self.it_load_w + self.envelope.solar_gain_w(irradiance_wm2)
        return heat_in / ua
