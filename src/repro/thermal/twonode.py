"""The two-node tent: one integrator for the faithful path and batch mode.

The campaign model treats the tent as a *single* thermal mass.  Physically
the tent is at least two: the air (tiny capacity, directly ventilated)
and the "mass" -- equipment chassis and fabric -- that stores most of the
heat and talks to the air through a film conductance::

    C_a dT_a/dt = q_air + h (T_m - T_a) - UA (T_a - T_out)
    C_m dT_m/dt = q_mass - h (T_m - T_a)

:class:`TwoNodeTentBank` integrates *P* replicas of that tent as numpy
vectors, one per 19-host pod in batch mode (``repro run --hosts N``).
Every replica shares one :class:`~repro.thermal.tent.TentEnvelope` (the
R/I/B/F/door modifications apply fleet wide), so ``ua``, ``ach``, solar
gain and the substep count are scalars per tick; only the IT load and
the plant's airflow factors differ per pod.  Each replica also carries
an inside vapour density, relaxed toward the outside value with
:class:`~repro.thermal.heatbalance.MoistureNode`'s arithmetic.

:class:`TwoNodeTent` is the faithful ``tent_model="two-node"`` enclosure:
a one-replica bank behind the :class:`~repro.thermal.enclosure.Enclosure`
interface.  The A4 ablation uses it to show that the two models share
steady states exactly and differ only in sub-hour transients -- below
the resolution of the paper's figures, which justifies the single node.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from repro.climate.generator import WeatherGenerator, WeatherSample
from repro.climate.psychro import absolute_humidity, rh_from_absolute_humidity
from repro.thermal.enclosure import Enclosure
from repro.thermal.tent import Modification, ModifiableEnvelopeMixin, TentEnvelope


class TwoNodeTentBank:
    """Air/mass temperature and vapour state for ``n_tents`` tent replicas.

    Parameters
    ----------
    n_tents:
        Number of replicas (one per pod).
    initial_temp_c:
        Starting air and mass temperature of every replica.
    envelope:
        Shared envelope (default: factory-fresh sealed tent).
    air_capacity_j_per_k:
        The tent's air volume (~15 m^3 of air ~ 18 kJ/K, padded for the
        boundary layer).
    mass_capacity_j_per_k:
        Chassis and fabric mass that follows the air on the hour scale.
    coupling_w_per_k:
        Film conductance between mass and air.
    mass_heat_fraction:
        Share of the IT load dissipated into the mass node (heat leaves
        hosts through their chassis before it reaches tent air).

    ``vapor_g_m3`` starts dry; owners fill it from their first weather
    sample.
    """

    def __init__(
        self,
        n_tents: int,
        initial_temp_c: float,
        envelope: Optional[TentEnvelope] = None,
        air_capacity_j_per_k: float = 22_000.0,
        mass_capacity_j_per_k: float = 140_000.0,
        coupling_w_per_k: float = 65.0,
        mass_heat_fraction: float = 0.6,
    ) -> None:
        if n_tents <= 0:
            raise ValueError("need at least one tent replica")
        if air_capacity_j_per_k <= 0 or mass_capacity_j_per_k <= 0 or coupling_w_per_k <= 0:
            raise ValueError("capacities and coupling must be positive")
        if not 0.0 <= mass_heat_fraction <= 1.0:
            raise ValueError("mass heat fraction must be in [0, 1]")
        self.n_tents = int(n_tents)
        self.envelope = envelope if envelope is not None else TentEnvelope()
        self.air_capacity = float(air_capacity_j_per_k)
        self.mass_capacity = float(mass_capacity_j_per_k)
        self.coupling = float(coupling_w_per_k)
        self.mass_heat_fraction = float(mass_heat_fraction)
        self.air_temp_c = np.full(self.n_tents, float(initial_temp_c), dtype=np.float64)
        self.mass_temp_c = np.full(self.n_tents, float(initial_temp_c), dtype=np.float64)
        self.vapor_g_m3 = np.zeros(self.n_tents, dtype=np.float64)

    def __repr__(self) -> str:
        return (
            f"TwoNodeTentBank(n={self.n_tents}, "
            f"air_mean={float(self.air_temp_c.mean()):.1f}degC)"
        )

    # ------------------------------------------------------------------
    def apply_modification(self, modification: Modification) -> None:
        """Apply one envelope intervention fleet-wide (all replicas)."""
        self.envelope = self.envelope.with_modification(modification)

    # ------------------------------------------------------------------
    def step(
        self,
        dt_s: float,
        it_load_w: np.ndarray,
        sample: WeatherSample,
        ua_factor: Optional[np.ndarray] = None,
        ach_factor: Optional[np.ndarray] = None,
    ) -> None:
        """Advance every replica by ``dt_s`` under the shared ``sample``.

        ``it_load_w`` is the per-tent IT dissipation (watts, shape
        ``(n_tents,)``, or one scalar for all).

        ``ua_factor`` and ``ach_factor``, when given, multiply the
        envelope conductance and the air-change rate per tent (the chaos
        plane's degraded-airflow / emergency-flap vectors; a scalar
        applies to every tent).  ``None`` keeps the all-scalar fast path.
        """
        if dt_s < 0:
            raise ValueError("dt cannot be negative")
        if dt_s == 0:
            return
        ua = self.envelope.ua_w_per_k(sample.wind_ms)
        ua_max = ua
        if ua_factor is not None:
            ua = ua * np.asarray(ua_factor, dtype=np.float64)
            ua_max = float(ua.max())
        solar = self.envelope.solar_gain_w(sample.solar_wm2)
        q_mass = self.mass_heat_fraction * it_load_w + solar
        q_air = (1.0 - self.mass_heat_fraction) * it_load_w

        # Explicit-Euler stability: the air node is the stiff one.  The
        # substep count is one scalar for the bank, sized for the
        # stiffest (largest effective ua) replica.
        max_dt = min(
            self.air_capacity / (2.0 * (self.coupling + ua_max)),
            self.mass_capacity / (2.0 * self.coupling),
        )
        substeps = max(1, int(math.ceil(dt_s / max_dt)))
        h = dt_s / substeps
        t_a = self.air_temp_c
        t_m = self.mass_temp_c
        outside_temp_c = sample.temp_c
        k_air = h / self.air_capacity
        k_mass = h / self.mass_capacity
        for _ in range(substeps):
            flow_me = self.coupling * (t_m - t_a)
            d_a = (q_air + flow_me - ua * (t_a - outside_temp_c)) * k_air
            d_m = (q_mass - flow_me) * k_mass
            t_a += d_a
            t_m += d_m

        # Vapour: exact solution of the linear relaxation over the step.
        ach = self.envelope.air_changes_per_hour(sample.wind_ms)
        if ach_factor is not None:
            ach = ach * np.asarray(ach_factor, dtype=np.float64)
        target = absolute_humidity(sample.temp_c, sample.rh_percent)
        decay = np.exp(-(ach / 3600.0) * dt_s)
        # In place: pod-wide temporaries every frame raise batch mode's
        # peak RSS by about 1 MB.
        vapor = self.vapor_g_m3
        vapor -= target
        vapor *= decay
        vapor += target

    # ------------------------------------------------------------------
    @property
    def intake_temp_c(self) -> np.ndarray:
        """Per-tent intake air temperature (hosts breathe the air node)."""
        return self.air_temp_c

    @property
    def intake_rh_percent(self) -> np.ndarray:
        """Per-tent intake RH (%): the vapour re-expressed at air temperature."""
        return rh_from_absolute_humidity(self.air_temp_c, self.vapor_g_m3)


class TwoNodeTent(ModifiableEnvelopeMixin, Enclosure):
    """The experiment's tent as one replica of :class:`TwoNodeTentBank`.

    ``name`` and ``weather`` are as for :class:`repro.thermal.tent.Tent`;
    the remaining parameters are the bank's.  Temperatures, vapour and
    the envelope live in the bank; this class only feeds it the
    weather, the IT load and the plant's airflow factors.
    """

    def __init__(
        self,
        name: str,
        weather: WeatherGenerator,
        envelope: Optional[TentEnvelope] = None,
        air_capacity_j_per_k: float = 22_000.0,
        mass_capacity_j_per_k: float = 140_000.0,
        coupling_w_per_k: float = 65.0,
        mass_heat_fraction: float = 0.6,
    ) -> None:
        first = weather.sample(weather.start_time)
        self.bank = TwoNodeTentBank(
            1, first.temp_c, envelope, air_capacity_j_per_k,
            mass_capacity_j_per_k, coupling_w_per_k, mass_heat_fraction,
        )
        self.bank.vapor_g_m3.fill(absolute_humidity(first.temp_c, first.rh_percent))
        super().__init__(name, weather)
        self.intake_temp_c = first.temp_c
        self.intake_rh_percent = first.rh_percent
        self._init_modifications()

    def __repr__(self) -> str:
        return (
            f"TwoNodeTent({self.name!r}, air={self.air_temp_c:.1f}degC, "
            f"mass={self.mass_temp_c:.1f}degC)"
        )

    @property
    def envelope(self) -> TentEnvelope:
        return self.bank.envelope

    @envelope.setter
    def envelope(self, value: TentEnvelope) -> None:
        self.bank.envelope = value

    @property
    def air_temp_c(self) -> float:
        return float(self.bank.air_temp_c[0])

    @property
    def mass_temp_c(self) -> float:
        return float(self.bank.mass_temp_c[0])

    # ------------------------------------------------------------------
    def _update(self, time: float, dt_s: float) -> None:
        ua_factor, ach_factor = self.plant_ua_factor, self.plant_ach_factor
        self.bank.step(
            dt_s,
            self.it_load_w,
            self.weather.sample(time),
            ua_factor=None if ua_factor == 1.0 else ua_factor,
            ach_factor=None if ach_factor == 1.0 else ach_factor,
        )
        self.intake_temp_c = air = self.air_temp_c
        vapor = float(self.bank.vapor_g_m3[0])
        # Scalar inputs take psychro's bit-identical fast path.
        self.intake_rh_percent = rh_from_absolute_humidity(air, vapor)

    # ------------------------------------------------------------------
    # Snapshot protocol (extends the Enclosure base state)
    # ------------------------------------------------------------------
    def _extra_state(self) -> Dict[str, Any]:
        return {
            "air_temp_c": self.air_temp_c,
            "mass_temp_c": self.mass_temp_c,
            "vapor_g_m3": float(self.bank.vapor_g_m3[0]),
            "envelope": self._envelope_state(),
        }

    def _load_extra_state(self, extra: Dict[str, Any]) -> None:
        self.bank.air_temp_c[0] = float(extra["air_temp_c"])
        self.bank.mass_temp_c[0] = float(extra["mass_temp_c"])
        self.bank.vapor_g_m3[0] = float(extra["vapor_g_m3"])
        self._load_envelope_state(extra["envelope"])

    # ------------------------------------------------------------------
    def steady_state_air_excess_c(self, wind_ms: float, irradiance_wm2: float = 0.0) -> float:
        """Equilibrium air excess: identical to the single-node value.

        At steady state every watt entering the mass flows on into the
        air and out through the envelope, so ``(q_air + q_mass) / UA`` --
        the same expression the single node uses.  This identity is the
        core of the A4 ablation.
        """
        ua = self.envelope.ua_w_per_k(wind_ms)
        total = self.it_load_w + self.envelope.solar_gain_w(irradiance_wm2)
        return total / ua

    def steady_state_mass_excess_c(self, wind_ms: float, irradiance_wm2: float = 0.0) -> float:
        """Equilibrium mass excess over *outside*: air excess plus the
        film drop needed to push the mass's own heat into the air."""
        solar = self.envelope.solar_gain_w(irradiance_wm2)
        q_mass = self.bank.mass_heat_fraction * self.it_load_w + solar
        film_drop = q_mass / self.bank.coupling
        return self.steady_state_air_excess_c(wind_ms, irradiance_wm2) + film_drop
