"""The paper campaign's plant: a one-pod instance of :class:`FleetPlant`.

The paper site is one tent pod on power feed 0 and a basement control
group on feed 1.  :class:`PlantController` runs the one plant state
machine (:class:`~repro.plant.fleet.FleetPlant`) with ``n_pods=1`` and
two feeds, off its own ``"plant.tick"`` engine key right behind
``"fleet.tick"``, and carries its decisions out on the campaign's
objects -- the role ``FleetScaleCampaign`` plays for batch cohorts:

- the pod's fan and blockage levels become tent airflow through
  :meth:`ActuatorBus.set_plant_degradation`;
- a CRAC outage and its repair become
  :meth:`BasementMachineRoom.fail_crac` / ``repair_crac``;
- a feed drop powers the feed's host group down through the
  :class:`~repro.control.actuators.ActuatorBus` until the repair;
- a trip stage sheds the tent group (lowest host id first), and a
  restore powers the shed hosts back up after the cool-down.

The emergency flap belongs to the actuator bus, because the thermostat
controller commands it too: its position is copied into the core before
each trip evaluation and any change is applied afterwards.

With no plan and no policy the campaign never constructs a controller,
so the seeded baseline records stay byte-identical.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.hardware.host import Host, HostState
from repro.plant.faults import PlantFaultPlan
from repro.plant.fleet import FleetPlant, core_state_from_scalar
from repro.plant.trip import ThermalTripPolicy
from repro.sim.events import HostFailed, LoadRestored, LoadShed
from repro.state.protocol import check_version, parsing

if TYPE_CHECKING:
    from repro.control.actuators import ActuatorBus

#: Power-feed domains of the paper site: feed 0 carries the tent pod,
#: feed 1 the basement control group.
FEED_GROUPS = ("tent", "basement")


class PlantController:
    """The paper site's plant: one tent pod, two feeds."""

    STATE_VERSION = 2

    def __init__(
        self,
        sim,
        fleet,
        plan: Optional[PlantFaultPlan] = None,
        policy: Optional[ThermalTripPolicy] = None,
        bus=None,
        actuators: Optional["ActuatorBus"] = None,
    ) -> None:
        from repro.control.actuators import ActuatorBus

        self.sim = sim
        self.fleet = fleet
        self.plan = plan if plan is not None else PlantFaultPlan()
        self.policy = policy
        self.bus = bus
        # Physical actions route through the campaign's actuator bus; a
        # standalone controller (tests, ad-hoc harnesses) gets its own.
        self.actuators = actuators if actuators is not None else ActuatorBus(fleet)
        self.core = self._new_core(0.0)
        self._last_now: Optional[float] = None
        self._tick_handle = None
        self._restore_task_id: Optional[int] = None
        self._intake = np.zeros(1)
        # Hosts we powered down, in shed order, per cause.
        self._shed_trip: List[int] = []
        self._shed_feed: List[List[int]] = [[] for _ in FEED_GROUPS]
        if self.bus is not None:
            self.bus.subscribe(HostFailed, self._on_host_failed)

    def _new_core(self, start_s: float) -> FleetPlant:
        return FleetPlant(
            self.plan,
            self.policy,
            n_pods=1,
            start_s=start_s,
            bus=self.bus,
            n_feeds=len(FEED_GROUPS),
            on_feed_drop=self._drop_feed,
            on_feed_restore=self._restore_feed,
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def register_keys(self, sim) -> None:
        sim.register("plant.tick", self._tick)

    def start_ticking(self, start: float) -> None:
        """Begin the periodic plant loop at simulated time ``start``.

        Scheduled with the same period as (and right after) the fleet
        tick, so every plant decision sees freshly advanced enclosures.
        """
        if self._tick_handle is not None:
            raise RuntimeError("plant controller already ticking")
        self.core = self._new_core(float(start))
        self.register_keys(self.sim)
        self._tick_handle = self.sim.every_key(
            self.fleet.config.tick_interval_s,
            "plant.tick",
            start=start,
            label="plant-tick",
        )

    def stop_ticking(self) -> None:
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    def rebind(self, sim) -> None:
        """Re-acquire the periodic tick handle after an engine load."""
        self.sim = sim
        if self._restore_task_id is not None:
            self._tick_handle = sim.periodic_task(int(self._restore_task_id))
            self._restore_task_id = None

    # ------------------------------------------------------------------
    # What the rest of the campaign reads
    # ------------------------------------------------------------------
    @property
    def census(self) -> Dict[str, Any]:
        return self.core.census()

    @property
    def tripped(self) -> bool:
        return bool(self.core.tripped[0])

    @property
    def crac_until(self) -> float:
        return self.core.crac_until

    @property
    def flap_open(self) -> bool:
        """The emergency flap, delegated to the actuator bus."""
        return self.actuators.flap_open

    def shed_host_count(self) -> int:
        return len(self._shed_trip) + sum(map(len, self._shed_feed))

    def _on_host_failed(self, event: HostFailed) -> None:
        """A failure inside an incident -- a fault before its repair
        deadline, a latched trip, or hosts shed -- counts as lost."""
        now = self.sim.now
        core = self.core
        if (
            self.shed_host_count()
            or core.incident_pods(now)[0]
            or (core.feed_until > now).any()
        ):
            core.hosts_lost += 1

    # ------------------------------------------------------------------
    # The tick: run the core, then carry out its decisions
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        dt = 0.0 if self._last_now is None else now - self._last_now
        core = self.core
        shed = self.shed_host_count()
        if shed:
            core.host_hours_shed += shed * dt / 3600.0

        core.advance(now, dt, self.fleet.weather.sample(now).temp_c)
        basement = self.fleet.basement
        if core.crac_until > now:
            if basement.crac_operational:
                basement.fail_crac(now)
        elif not basement.crac_operational:
            basement.repair_crac(now)
        actuators = self.actuators
        fan, blockage = core.fan_level[0], core.block_level[0]
        if fan != actuators.fan_severity or blockage != actuators.blockage:
            actuators.set_plant_degradation(fan, blockage)

        core.flap[0] = actuators.flap_open
        self._intake[0] = self.fleet.tent.intake_temp_c
        shed_stages, restore = core.evaluate(now, dt, self._intake)
        flap = bool(core.flap[0])
        if flap is not actuators.flap_open:
            actuators.set_flap(flap, now)
        for _pod, stage, fraction in shed_stages:
            self._shed_to_stage(stage, fraction, now)
        if restore:
            self._restore_trip(now)
        self._last_now = now

    def _group_hosts(self, feed: int) -> List[Host]:
        return self.fleet.hosts_in_group(FEED_GROUPS[feed])

    def _drop_feed(self, feed: int) -> None:
        now = self.sim.now
        dropped = 0
        for host in self._group_hosts(feed):
            if host.state is HostState.RUNNING:
                self.actuators.power_down(host, now, reason="feed drop")
                self._shed_feed[feed].append(host.host_id)
                dropped += 1
        if dropped:
            self.core.hosts_shed += dropped
            if self.bus is not None:
                self.bus.publish(
                    LoadShed(time=now, pod=feed, hosts=dropped, stage=0, reason="feed")
                )

    def _power_up(self, host_ids: List[int], now: float) -> int:
        restored = 0
        for host_id in host_ids:
            host = self.fleet.host(host_id)
            if host.state is HostState.SHED:
                self.actuators.power_up(host, now)
                restored += 1
        self.core.hosts_restored += restored
        return restored

    def _restore_feed(self, feed: int) -> None:
        now = self.sim.now
        restored = self._power_up(self._shed_feed[feed], now)
        self._shed_feed[feed] = []
        if restored and self.bus is not None:
            self.bus.publish(
                LoadRestored(time=now, pod=feed, hosts=restored, reason="feed")
            )

    def _shed_to_stage(self, stage: int, fraction: float, now: float) -> None:
        """Power tent hosts down until the stage's shed fraction is met."""
        group = sorted(self._group_hosts(0), key=lambda h: h.host_id)
        if not group:
            return
        target = int(math.ceil(fraction * len(group)))
        shed_now = 0
        for host in group:
            if len(self._shed_trip) >= target:
                break
            if host.state is HostState.RUNNING and host.host_id not in self._shed_trip:
                self.actuators.power_down(host, now, reason="thermal trip")
                self._shed_trip.append(host.host_id)
                shed_now += 1
        if shed_now:
            self.core.hosts_shed += shed_now
            if self.bus is not None:
                self.bus.publish(
                    LoadShed(time=now, pod=0, hosts=shed_now, stage=stage, reason="trip")
                )

    def _restore_trip(self, now: float) -> None:
        restored = self._power_up(self._shed_trip, now)
        self._shed_trip = []
        if restored and self.bus is not None:
            self.bus.publish(LoadRestored(time=now, pod=0, hosts=restored, reason="trip"))

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": self.STATE_VERSION,
            "start_s": self.core.start_s,
            "last_now": self._last_now,
            "tick_task_id": (
                self._tick_handle.task_id if self._tick_handle is not None else None
            ),
            "shed_trip": list(self._shed_trip),
            "shed_feed": [list(ids) for ids in self._shed_feed],
            "core": self.core.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore from a version-2 blob, or a version-1 one written by
        the scalar plant that preceded the one-pod core.

        A malformed blob raises :class:`StateError` and changes nothing.
        """
        with parsing("PlantController"):
            if state.get("version") == 1:
                state = _upgrade_v1(state)
            check_version("PlantController", state, self.STATE_VERSION)
            core = self._new_core(float(state["start_s"]))
            core.load_state_dict(state["core"])
            last_now = state["last_now"]
            last_now = None if last_now is None else float(last_now)
            task_id = state["tick_task_id"]
            task_id = None if task_id is None else int(task_id)
            shed_trip = [int(v) for v in state["shed_trip"]]
            shed_feed = [[int(v) for v in ids] for ids in state["shed_feed"]]
            if len(shed_feed) != len(FEED_GROUPS):
                raise ValueError(f"{len(shed_feed)} feed shed lists")
        self.core = core
        self._last_now = last_now
        self._restore_task_id = task_id
        self._shed_trip = shed_trip
        self._shed_feed = shed_feed


def _upgrade_v1(state: Dict[str, Any]) -> Dict[str, Any]:
    """A version-1 blob, written by the scalar plant that preceded the
    one-pod core, in the version-2 layout."""
    return {
        "version": PlantController.STATE_VERSION,
        "start_s": state["start_s"],
        "last_now": state["last_now"],
        "tick_task_id": state.get("tick_task_id"),
        "shed_trip": state["shed_trip"],
        "shed_feed": state["shed_feed"],
        "core": core_state_from_scalar(state),
    }
