"""The plant chaos plane: cooling/power faults with thermal consequences.

``repro.plant`` owns everything that can go wrong *around* the servers:
fan and blower failures, CRAC outages, snow-blocked intakes, heater loss
(and the ice it grows), and per-pod power-feed drops -- plus the
protective layer that reacts to them (intake-overtemp trips, staged load
shedding, the emergency flap).

- :mod:`repro.plant.faults` -- the fault grammar (:class:`PlantFaultPlan`)
  and the physics of degraded airflow (:func:`airflow_factors`),
- :mod:`repro.plant.trip` -- :class:`ThermalTripPolicy`,
- :mod:`repro.plant.fleet` -- :class:`FleetPlant`, the one plant state
  machine, vectorized over pods.

Two adapters carry its decisions out: batch mode's
``FleetScaleCampaign`` over its cohort's pods, and
:class:`~repro.plant.controller.PlantController`, which runs it as a
one-pod, two-feed instance for the 19-host paper campaign.
"""

from repro.plant.controller import PlantController
from repro.plant.faults import (
    PlantFault,
    PlantFaultKind,
    PlantFaultPlan,
    PlantStorm,
    airflow_factors,
)
from repro.plant.fleet import FleetPlant
from repro.plant.trip import ThermalTripPolicy

__all__ = [
    "PlantController",
    "PlantFault",
    "PlantFaultKind",
    "PlantFaultPlan",
    "PlantStorm",
    "ThermalTripPolicy",
    "FleetPlant",
    "airflow_factors",
]
