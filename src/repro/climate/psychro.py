"""Psychrometrics: the humidity arithmetic behind Sections 4.1 and 5.

The paper's condensation discussion (Section 5) hinges on one comparison:
water condenses on a surface only when the surface temperature falls below
the dewpoint of the surrounding air.  These helpers implement the standard
Magnus-form approximations (WMO coefficients over water, with an ice branch
for sub-zero saturation) used by meteorological services.

All temperatures are degrees Celsius, vapor pressures hPa, absolute
humidity g/m^3, relative humidity percent in ``[0, 100]``.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

# Magnus coefficients (Sonntag 1990, WMO): e_s = A * exp(B*T / (C + T))
_A_WATER = 6.112
_B_WATER = 17.62
_C_WATER = 243.12
# Over ice (for frost point / sub-zero saturation):
_B_ICE = 22.46
_C_ICE = 272.62

#: Specific gas constant of water vapor, J/(kg K).
_R_VAPOR = 461.5


def saturation_vapor_pressure(temp_c: ArrayLike, over_ice: bool = False) -> ArrayLike:
    """Saturation vapor pressure in hPa at ``temp_c``.

    With ``over_ice=True`` the ice-surface coefficients are used, which is
    the right choice for frost formation on sub-zero hardware surfaces.
    """
    t = np.asarray(temp_c, dtype=float)
    if over_ice:
        e = _A_WATER * np.exp(_B_ICE * t / (_C_ICE + t))
    else:
        e = _A_WATER * np.exp(_B_WATER * t / (_C_WATER + t))
    if np.isscalar(temp_c):
        return float(e)
    return e


def vapor_pressure(temp_c: ArrayLike, rh_percent: ArrayLike) -> ArrayLike:
    """Actual vapor pressure (hPa) of air at ``temp_c`` and ``rh_percent``."""
    rh = np.asarray(rh_percent, dtype=float)
    e = saturation_vapor_pressure(temp_c) * rh / 100.0
    if np.isscalar(temp_c) and np.isscalar(rh_percent):
        return float(e)
    return e


def dewpoint(temp_c: ArrayLike, rh_percent: ArrayLike) -> ArrayLike:
    """Dewpoint temperature (degC) of air at ``temp_c`` and ``rh_percent``.

    RH is clipped to a small positive floor: a zero-humidity dewpoint is
    mathematically -inf and never occurs in outdoor air.
    """
    rh = np.clip(np.asarray(rh_percent, dtype=float), 0.1, 100.0)
    t = np.asarray(temp_c, dtype=float)
    gamma = np.log(rh / 100.0) + _B_WATER * t / (_C_WATER + t)
    td = _C_WATER * gamma / (_B_WATER - gamma)
    if np.isscalar(temp_c) and np.isscalar(rh_percent):
        return float(td)
    return td


def relative_humidity_from_dewpoint(temp_c: ArrayLike, dewpoint_c: ArrayLike) -> ArrayLike:
    """Relative humidity (%) of air at ``temp_c`` with dewpoint ``dewpoint_c``.

    Clipped to ``[0, 100]``: a dewpoint above the dry-bulb temperature is
    supersaturation, reported as 100 %.
    """
    if isinstance(temp_c, float) and isinstance(dewpoint_c, float):
        # Scalar fast path, bit-identical to the array path below: the
        # same float64 arithmetic and the same ``np.exp`` loop, without the
        # 0-d array round trips.  The tent's thermal advance queries the
        # weather once per tick.
        e = _A_WATER * np.exp(_B_WATER * dewpoint_c / (_C_WATER + dewpoint_c))
        es = _A_WATER * np.exp(_B_WATER * temp_c / (_C_WATER + temp_c))
        return float(min(max(100.0 * e / es, 0.0), 100.0))
    e = saturation_vapor_pressure(dewpoint_c)
    es = saturation_vapor_pressure(temp_c)
    rh = np.clip(100.0 * np.asarray(e) / np.asarray(es), 0.0, 100.0)
    if np.isscalar(temp_c) and np.isscalar(dewpoint_c):
        return float(rh)
    return rh


def absolute_humidity(temp_c: ArrayLike, rh_percent: ArrayLike) -> ArrayLike:
    """Water vapor density in g/m^3.

    This is the quantity conserved when outside air is drawn into the tent
    and warmed: the tent adds heat, not moisture (to first order), so inside
    RH follows from outside absolute humidity plus the inside temperature.
    """
    e_pa = np.asarray(vapor_pressure(temp_c, rh_percent)) * 100.0  # hPa -> Pa
    t_k = np.asarray(temp_c, dtype=float) + 273.15
    ah = 1000.0 * e_pa / (_R_VAPOR * t_k)  # kg/m^3 -> g/m^3
    if np.isscalar(temp_c) and np.isscalar(rh_percent):
        return float(ah)
    return ah


def rh_from_absolute_humidity(temp_c: ArrayLike, ah_g_m3: ArrayLike) -> ArrayLike:
    """Relative humidity (%) of air at ``temp_c`` holding ``ah_g_m3`` of vapor."""
    t_k = np.asarray(temp_c, dtype=float) + 273.15
    e_pa = np.asarray(ah_g_m3, dtype=float) / 1000.0 * _R_VAPOR * t_k
    es_pa = np.asarray(saturation_vapor_pressure(temp_c)) * 100.0
    rh = np.clip(100.0 * e_pa / es_pa, 0.0, 100.0)
    if np.isscalar(temp_c) and np.isscalar(ah_g_m3):
        return float(rh)
    return rh


def condensation_margin(
    surface_temp_c: ArrayLike, ambient_temp_c: ArrayLike, ambient_rh_percent: ArrayLike
) -> ArrayLike:
    """Degrees of safety between a surface and the ambient dewpoint.

    Positive margin means the surface is *warmer* than the dewpoint and
    stays dry; a negative margin means condensation forms.  The paper's
    Section 5 argument is that powered cases run warmer than ambient, so
    the margin stays positive unless outside air suddenly becomes much
    warmer and wetter than the case.
    """
    td = dewpoint(ambient_temp_c, ambient_rh_percent)
    margin = np.asarray(surface_temp_c, dtype=float) - np.asarray(td)
    if np.isscalar(surface_temp_c) and np.isscalar(ambient_temp_c):
        return float(margin)
    return margin


def condenses(
    surface_temp_c: float, ambient_temp_c: float, ambient_rh_percent: float
) -> bool:
    """True when ``surface_temp_c`` is at/below the ambient dewpoint."""
    return condensation_margin(surface_temp_c, ambient_temp_c, ambient_rh_percent) <= 0.0


def mix_air(
    temp_a: float, rh_a: float, temp_b: float, rh_b: float, fraction_b: float
) -> "tuple[float, float]":
    """Adiabatically mix two air parcels; return (temp_c, rh_percent).

    Used by the tent model when ventilation mixes outside air into the
    tent volume.  ``fraction_b`` is the mass fraction of parcel B.
    """
    if not 0.0 <= fraction_b <= 1.0:
        raise ValueError(f"fraction_b must be in [0, 1], got {fraction_b}")
    temp = (1.0 - fraction_b) * temp_a + fraction_b * temp_b
    ah = (1.0 - fraction_b) * absolute_humidity(temp_a, rh_a) + fraction_b * absolute_humidity(
        temp_b, rh_b
    )
    return temp, float(rh_from_absolute_humidity(temp, ah))


def frost_point(temp_c: float, rh_percent: float) -> float:
    """Frost-point temperature (degC): dewpoint computed over ice.

    Below 0 degC deposition happens at the frost point, slightly above the
    over-water dewpoint; relevant for the tent's sub-zero months.
    """
    rh = min(max(rh_percent, 0.1), 100.0)
    e = vapor_pressure(temp_c, rh)
    # Invert the ice-branch Magnus formula.
    ln_ratio = math.log(e / _A_WATER)
    return _C_ICE * ln_ratio / (_B_ICE - ln_ratio)
