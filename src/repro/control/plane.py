"""The control plane: wires one controller to one campaign's actuators.

The plane owns the :class:`~repro.control.actuators.ActuatorBus`, turns
the controller's declared *wakes* into engine events (keeping the
historical ``campaign.tent_mod`` key so the default schedule replays
byte-identically), drives the periodic ``act`` loop when the controller
wants one, and snapshots controller + bus state as one campaign
component so kill-and-resume lands mid-episode exactly where it left
off.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.control.actuators import ActuatorBus
from repro.control.controllers import ControlAction, Controller
from repro.control.observation import ControlObservation
from repro.state.protocol import check_version
from repro.thermal.tent import Modification

#: Engine key for scheduled controller wakes.  Kept under its historical
#: name: the pinned seed-7 queue snapshot and event labels predate the
#: control plane and must not shift.
WAKE_KEY = "campaign.tent_mod"
TICK_KEY = "control.tick"


class ControlPlane:
    """Controller <-> campaign glue, snapshot-safe across kill and resume."""

    STATE_VERSION = 1

    def __init__(
        self,
        sim,
        fleet,
        controller: Controller,
        clock,
        powermeter=None,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
        self.controller = controller
        self.clock = clock
        self.powermeter = powermeter
        self.telemetry = telemetry
        #: Set by the campaign when a chaos plant is armed, so trip
        #: status can appear in observations.
        self.plant = None
        self.actuators = ActuatorBus(fleet)
        self.ticks = 0
        self._tick_task = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def register_keys(self, sim) -> None:
        sim.register(WAKE_KEY, self._on_wake)
        sim.register(TICK_KEY, self._tick)

    def schedule_wakes(self, end: float) -> None:
        """Schedule the controller's one-shot wakes up to ``end``."""
        for when, tag in self.controller.wakes(self.clock):
            if when > end:
                continue
            self.sim.schedule_at_key(
                when,
                WAKE_KEY,
                args=(tag, when),
                label=f"tent-mod.{tag}",
            )

    def start_ticking(self, start: float) -> None:
        """Begin the periodic act loop, if the controller wants one."""
        interval = self.controller.interval_s
        if interval is None:
            return
        self._tick_task = self.sim.every_key(
            float(interval), TICK_KEY, start=start, label="control-tick"
        )

    def _on_wake(self, tag: str, when: float) -> None:
        self.controller.on_wake(self.actuators, tag, when)
        self._count("control.wakes")

    def _tick(self) -> None:
        now = self.sim.now
        self.ticks += 1
        obs = self.observe(now)
        action = self.controller.act(obs)
        if action is not None:
            self.apply(action, now)

    # ------------------------------------------------------------------
    # Observation and action
    # ------------------------------------------------------------------
    def observe(self, now: float) -> ControlObservation:
        """One frozen snapshot of campaign state at ``now``."""
        weather = self.fleet.weather.sample(now)
        tent = self.fleet.tent
        basement = self.fleet.basement
        running, shed = self.fleet.host_census()
        tripped = bool(self.plant.tripped) if self.plant is not None else False
        energy = self.powermeter.energy_kwh if self.powermeter is not None else 0.0
        return ControlObservation(
            time_s=float(now),
            outside_temp_c=float(weather.temp_c),
            outside_rh_percent=float(weather.rh_percent),
            wind_ms=float(weather.wind_ms),
            solar_wm2=float(weather.solar_wm2),
            tent_temp_c=float(tent.intake_temp_c),
            tent_rh_percent=float(tent.intake_rh_percent),
            basement_temp_c=float(basement.intake_temp_c),
            hosts_running=running,
            hosts_shed=shed,
            failures_total=len(self.fleet.fault_log.events),
            flap_open=self.actuators.flap_open,
            fan_duty=self.actuators.fan_duty,
            tripped=tripped,
            energy_kwh=float(energy),
            modifications=tuple(
                mod.letter for _, mod in tent.modification_log
            ),
        )

    def apply(self, action: ControlAction, now: float) -> int:
        """Route one action bundle to the bus; returns commands applied."""
        before = self.actuators.actions_applied
        for letter in action.modifications:
            self.actuators.apply_modification(Modification(letter), now)
        if action.flap is not None:
            self.actuators.set_flap(action.flap, now)
        if action.fan_duty is not None:
            self.actuators.set_fan_duty(action.fan_duty, now)
        if action.crac_setpoint_c is not None:
            self.actuators.set_crac_setpoint(action.crac_setpoint_c, now)
        if action.shed_fraction is not None:
            self.actuators.set_load_shed(action.shed_fraction, now)
        if action.dvfs_scale is not None:
            self.actuators.set_dvfs(action.dvfs_scale, now)
        applied = self.actuators.actions_applied - before
        if applied:
            self._count("control.actions", applied)
        return applied

    def _count(self, name: str, value: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name).inc(value)

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": self.STATE_VERSION,
            "ticks": self.ticks,
            "tick_task_id": (
                None if self._tick_task is None else self._tick_task.task_id
            ),
            "actuators": self.actuators.state_dict(),
            "controller": self.controller.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        check_version("control", state, self.STATE_VERSION)
        self.ticks = int(state["ticks"])
        self._pending_task_id = state["tick_task_id"]
        self.actuators.load_state_dict(state["actuators"])
        self.controller.load_state_dict(state["controller"])

    def rebind(self) -> None:
        """Re-attach the periodic tick task after an engine restore."""
        task_id = getattr(self, "_pending_task_id", None)
        if task_id is not None:
            self._tick_task = self.sim.periodic_task(int(task_id))
        self._pending_task_id = None
