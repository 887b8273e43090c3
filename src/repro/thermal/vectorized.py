"""Vectorized tent thermal bank for fleet-scale cohorts.

The paper ran one tent.  A scaled cohort (``repro run --hosts N``) runs
many replicas of that tent -- one per 19-host pod -- and stepping each
replica through its own :class:`~repro.thermal.twonode.TwoNodeTent`
object would put thousands of Python enclosures on the batch tick's hot
path.  :class:`TwoNodeTentBank` instead holds
the air and thermal-mass temperatures of *P* tent replicas as two numpy
vectors and advances all of them with the same explicit-Euler substep
scheme as :meth:`TwoNodeTent._update`.

Two properties make the vectorization cheap and faithful:

- Every replica shares one :class:`~repro.thermal.tent.TentEnvelope`
  (the campaign applies the paper's R/I/B/F/door modifications fleet
  wide), so ``ua``, ``ach``, solar gain, and the stability-bound substep
  count are *scalars* computed once per tick.
- Only the IT load differs per pod (pods lose hosts to failures at
  different times), so the inner loop is pure ``P``-wide vector
  arithmetic: two fused multiply-adds per substep.

The bank deliberately omits the per-tent moisture node: fleet-scale
monitoring aggregates temperatures and failure counts, not logger RH
traces.  The 19-host paper configuration never uses this class -- it
keeps the byte-identical per-object enclosures.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.thermal.tent import Modification, TentEnvelope


class TwoNodeTentBank:
    """Air/mass temperature state for ``n_tents`` identical tent replicas.

    Parameters mirror :class:`~repro.thermal.twonode.TwoNodeTent` so the
    single-tent defaults (22 kJ/K air, 140 kJ/K mass, 65 W/K coupling,
    60 % of IT heat into the mass node) carry over unchanged.
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
        outside_temp_c: float,
        wind_ms: float,
        solar_wm2: float,
        ua_factor: Optional[np.ndarray] = None,
    ) -> None:
        """Advance every replica by ``dt_s`` under shared weather.

        ``it_load_w`` is the per-tent IT dissipation vector (watts,
        shape ``(n_tents,)``); weather inputs are the scalars of the one
        shared :class:`~repro.climate.generator.WeatherSample`.

        ``ua_factor``, when given, is a per-tent multiplier on the
        envelope conductance (the chaos plane's degraded-airflow /
        emergency-flap vector).  ``None`` keeps the historical all-scalar
        fast path byte-identical.
        """
        if dt_s < 0:
            raise ValueError("dt cannot be negative")
        if dt_s == 0:
            return
        ua = self.envelope.ua_w_per_k(wind_ms)
        ua_max = ua
        if ua_factor is not None:
            ua = ua * np.asarray(ua_factor, dtype=np.float64)
            ua_max = float(ua.max())
        solar = self.envelope.solar_gain_w(solar_wm2)
        q_mass = self.mass_heat_fraction * it_load_w + solar
        q_air = (1.0 - self.mass_heat_fraction) * it_load_w

        # Same explicit-Euler stability bound as TwoNodeTent._update; the
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
        k_air = h / self.air_capacity
        k_mass = h / self.mass_capacity
        for _ in range(substeps):
            flow_me = self.coupling * (t_m - t_a)
            d_a = (q_air + flow_me - ua * (t_a - outside_temp_c)) * k_air
            d_m = (q_mass - flow_me) * k_mass
            t_a += d_a
            t_m += d_m

    # ------------------------------------------------------------------
    @property
    def intake_temp_c(self) -> np.ndarray:
        """Per-tent intake air temperature (hosts breathe the air node)."""
        return self.air_temp_c
