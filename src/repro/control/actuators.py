"""The actuator bus: every knob the plant exposes, typed and clamped.

Before this module existed, actuation was entangled in three places:
the open-loop ``TentModificationPlan`` replay inside the campaign
builder, the trip/shed/flap machinery inside the plant controllers, and
the envelope knobs scattered across the tent models.  The
:class:`ActuatorBus` is now the single choke point: controllers (and the
chaos plane) express *intent* -- "open the flap", "run the economizer
fan at 60 %", "shed half the tent" -- and the bus translates that into
the underlying fleet calls, clamping every command into its physical
range first.

The bus drives the faithful campaign's
:class:`~repro.core.deployment.Fleet` -- its enclosures and host
objects -- directly; batch mode keeps its own pod arrays and plant.

Determinism contract: a bus nobody commands touches nothing.  Airflow is
only re-composed when a degradation, flap, or fan-duty command arrives;
the DVFS scale and CRAC setpoint keep their construction values until a
controller moves them.  A default campaign (paper-operator controller,
no plant) therefore leaves the thermal trace byte-identical to the
pre-bus wiring.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.hardware.host import Host, HostState
from repro.plant.faults import airflow_factors
from repro.thermal.tent import Modification

#: Basement CRAC setpoint range (degC): office-type conditioning cannot
#: chase free-cooling extremes, nor bake the control group.
CRAC_SETPOINT_RANGE = (16.0, 27.0)
#: DVFS/server-fan power-scale range: duty cycling below half the rated
#: draw stalls the synthetic workload, above 1.0 is fiction.
DVFS_RANGE = (0.5, 1.0)
#: Economizer fan at full duty raises envelope conductance by this
#: fraction and ventilation by :data:`FAN_DUTY_ACH_BOOST` (a tabletop
#: fan moves air much better than it moves heat through fabric).
FAN_DUTY_UA_BOOST = 0.6
FAN_DUTY_ACH_BOOST = 2.0


def clamp(value: float, lo: float, hi: float) -> float:
    """``value`` forced into ``[lo, hi]`` (NaN becomes ``lo``)."""
    value = float(value)
    if math.isnan(value):
        return lo
    return min(max(value, lo), hi)


def clamp_fraction(value: float) -> float:
    """``value`` forced into the unit interval."""
    return clamp(value, 0.0, 1.0)


class ActuatorBus:
    """Typed, bounds-clamped actuators over one campaign fleet.

    Actuators (each clamps, then applies through the fleet):

    - :meth:`apply_modification` -- the paper's R/I/B/F/D envelope
      interventions (tent flaps and the half-open door included);
    - :meth:`set_flap` -- the emergency flap;
    - :meth:`set_fan_duty` -- economizer fan duty in ``[0, 1]``;
    - :meth:`set_crac_setpoint` -- the basement CRAC setpoint;
    - :meth:`set_load_shed` -- cumulative shed fraction of the tent
      group (staged, lowest host id first, LIFO restore);
    - :meth:`set_dvfs` -- server fan/DVFS power scale on the tent's IT
      load.

    The chaos plane feeds its fan/blockage severities in through
    :meth:`set_plant_degradation` so degradation and deliberate
    actuation compose into one airflow state instead of overwriting
    each other.
    """

    STATE_VERSION = 1

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        # Airflow inputs, composed into one set_plant_airflow call.
        self.flap_open = False
        self.fan_duty = 0.0
        self.fan_severity = 0.0
        self.blockage = 0.0
        # Setpoints (None = never commanded; construction value rules).
        self.crac_setpoint_c: Optional[float] = None
        self.dvfs_scale = 1.0
        #: Hosts this bus shed via :meth:`set_load_shed`, in shed order.
        self._shed: List[int] = []
        #: Commands that changed something (telemetry reads this).
        self.actions_applied = 0

    def __repr__(self) -> str:
        return (
            f"ActuatorBus(flap={self.flap_open}, duty={self.fan_duty:.2f}, "
            f"shed={len(self._shed)}, actions={self.actions_applied})"
        )

    # ------------------------------------------------------------------
    # Envelope
    # ------------------------------------------------------------------
    def apply_modification(self, mod: Modification, now: float) -> None:
        """One R/I/B/F/D intervention; publishes ``TentModified``."""
        self.fleet.apply_tent_modification(mod, now)
        self.actions_applied += 1

    def set_flap(self, open_: bool, now: Optional[float] = None) -> bool:
        """Open/close the emergency flap; returns True when it moved."""
        open_ = bool(open_)
        if open_ == self.flap_open:
            return False
        self.flap_open = open_
        self._apply_airflow()
        self.actions_applied += 1
        return True

    def set_fan_duty(self, duty: float, now: Optional[float] = None) -> bool:
        """Economizer fan duty in ``[0, 1]``; returns True on change."""
        duty = clamp_fraction(duty)
        if duty == self.fan_duty:
            return False
        self.fan_duty = duty
        self._apply_airflow()
        self.actions_applied += 1
        return True

    def set_plant_degradation(self, fan_severity: float, blockage: float) -> None:
        """Chaos-plane input: degraded blower/intake severities.

        Not an operator action (no command tally) -- the paper plant
        reports its pod's fan and blockage levels here whenever they
        change, so the composed airflow always reflects both faults and
        intent.  ``blockage`` is already the worse of the intake
        blockage and accreted ice.
        """
        self.fan_severity = float(fan_severity)
        self.blockage = float(blockage)
        self._apply_airflow()

    def _apply_airflow(self) -> None:
        """Compose degradation, flap, and fan duty into the tent."""
        ua, ach = airflow_factors(self.fan_severity, self.blockage, self.flap_open)
        if self.fan_duty > 0.0:
            ua *= 1.0 + FAN_DUTY_UA_BOOST * self.fan_duty
            ach *= 1.0 + FAN_DUTY_ACH_BOOST * self.fan_duty
        self.fleet.tent.set_plant_airflow(ua, ach)

    # ------------------------------------------------------------------
    # Basement and compute
    # ------------------------------------------------------------------
    def set_crac_setpoint(self, temp_c: float, now: Optional[float] = None) -> bool:
        """Move the basement CRAC setpoint (clamped to its range)."""
        temp_c = clamp(temp_c, *CRAC_SETPOINT_RANGE)
        if self.crac_setpoint_c is not None and temp_c == self.crac_setpoint_c:
            return False
        self.crac_setpoint_c = temp_c
        self.fleet.basement.setpoint_c = temp_c
        self.actions_applied += 1
        return True

    def set_dvfs(self, scale: float, now: Optional[float] = None) -> bool:
        """Server fan/DVFS power scale on the tent's dissipated IT load."""
        scale = clamp(scale, *DVFS_RANGE)
        if scale == self.dvfs_scale:
            return False
        self.dvfs_scale = scale
        self.fleet.tent.it_load_scale = scale
        self.actions_applied += 1
        return True

    # ------------------------------------------------------------------
    # Load shedding
    # ------------------------------------------------------------------
    def shed_count(self) -> int:
        """Hosts currently powered down by this bus."""
        return len(self._shed)

    def set_load_shed(
        self,
        fraction: float,
        now: float,
        group: str = "tent",
        reason: str = "controller shed",
    ) -> int:
        """Shed (or restore) hosts to meet a cumulative group fraction.

        Sheds lowest host id first, restores in LIFO order -- the same
        staging discipline the thermal-trip machinery uses.  Returns the
        number of hosts whose power state changed.
        """
        fraction = clamp_fraction(fraction)
        hosts = sorted(self.fleet.hosts_in_group(group), key=lambda h: h.host_id)
        target = int(math.ceil(fraction * len(hosts)))
        changed = 0
        if target > len(self._shed):
            for host in hosts:
                if len(self._shed) >= target:
                    break
                if host.state is HostState.RUNNING and host.host_id not in self._shed:
                    self.power_down(host, now, reason=reason)
                    self._shed.append(host.host_id)
                    changed += 1
        else:
            while len(self._shed) > target:
                host = self.fleet.host(self._shed.pop())
                if host.state is HostState.SHED:
                    self.power_up(host, now)
                    changed += 1
        if changed:
            self.actions_applied += 1
        return changed

    # ------------------------------------------------------------------
    # Raw host choke points (the paper plant routes through these so
    # every power transition crosses one audited surface).
    # ------------------------------------------------------------------
    def power_down(self, host: Host, now: float, reason: str) -> None:
        host.power_down(now, reason=reason)

    def power_up(self, host: Host, now: float) -> None:
        host.power_up(now)

    # ------------------------------------------------------------------
    # Snapshot protocol (owned by the ControlPlane's state blob)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": self.STATE_VERSION,
            "flap_open": self.flap_open,
            "fan_duty": self.fan_duty,
            "fan_severity": self.fan_severity,
            "blockage": self.blockage,
            "crac_setpoint_c": self.crac_setpoint_c,
            "dvfs_scale": self.dvfs_scale,
            "shed": list(self._shed),
            "actions_applied": self.actions_applied,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.flap_open = bool(state["flap_open"])
        self.fan_duty = float(state["fan_duty"])
        self.fan_severity = float(state["fan_severity"])
        self.blockage = float(state["blockage"])
        crac = state["crac_setpoint_c"]
        self.crac_setpoint_c = None if crac is None else float(crac)
        self.dvfs_scale = float(state["dvfs_scale"])
        self._shed = [int(v) for v in state["shed"]]
        self.actions_applied = int(state["actions_applied"])
        # Setpoints live on objects whose own snapshots do not carry
        # them (construction parameters historically); reapply so a
        # restored campaign keeps integrating with the commanded values.
        if self.crac_setpoint_c is not None:
            self.fleet.basement.setpoint_c = self.crac_setpoint_c
        if self.dvfs_scale != 1.0:
            self.fleet.tent.it_load_scale = self.dvfs_scale
