"""Plant-fault controller for the 19-host paper campaign.

The fleet-scale chaos plane (:class:`repro.plant.fleet.FleetPlant`) keeps
thousands of pods as numpy vectors.  The paper campaign has exactly one
tent pod and a basement control group, and its state must round-trip
byte-identically through :class:`~repro.core.builder.CampaignCheckpoint`
-- so it gets this scalar controller instead,
driven off its own ``"plant.tick"`` engine key right behind
``"fleet.tick"``.

The controller owns the same fault grammar and physics constants as the
fleet plane:

- fan failure / intake blockage degrade the tent's envelope conductance
  and ventilation (:meth:`ModifiableEnvelopeMixin.set_plant_airflow`),
- CRAC outage lets the basement machine room drift toward outside air
  (:meth:`BasementMachineRoom.fail_crac`),
- heater loss accretes intake ice while it is freezing outside,
- a power-feed drop powers down a whole host group (feed 0 = tent,
  feed 1 = basement) until repair,

and an optional :class:`~repro.plant.trip.ThermalTripPolicy` watches the
tent intake: overtemperature trips shed the tent group in stages
(lowest host id first), opening the emergency flap, and restore the
hosts after a cool-down.  Every transition publishes a typed bus event
and lands in the survival census.

With no plan and no policy the campaign never constructs a controller,
so the seeded baseline records stay byte-identical.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.hardware.host import Host, HostState
from repro.plant.faults import (
    DAY_S,
    ICE_ACCRETION_PER_H,
    ICE_SEVERITY_CAP,
    PlantFault,
    PlantFaultKind,
    PlantFaultPlan,
    POD_SCOPED,
)
from repro.plant.trip import ThermalTripPolicy
from repro.sim.events import (
    EmergencyFlapClosed,
    EmergencyFlapOpened,
    HostFailed,
    LoadRestored,
    LoadShed,
    PlantFaultInjected,
    PlantFaultRepaired,
    ThermalTrip,
    ThermalTripCleared,
)
from repro.state.codec import decode_value, encode_value
from repro.state.protocol import check_version

if TYPE_CHECKING:
    from repro.control.actuators import ActuatorBus

#: Power-feed domains of the paper site: feed 0 carries the tent pod,
#: feed 1 the basement control group.
FEED_GROUPS: Tuple[str, ...] = ("tent", "basement")

_INACTIVE = -math.inf

#: Default overtemperature threshold used for excursion accounting when
#: no trip policy is armed (matches ThermalTripPolicy.trip_c).
_EXCURSION_C = 45.0


class PlantController:
    """Scalar chaos plane for the single-tent paper campaign."""

    STATE_VERSION = 1

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
        self._start_s: Optional[float] = None
        self._last_now: Optional[float] = None
        self._tick_handle = None
        self._restore_task_id: Optional[int] = None

        # Active-fault runtime: repair deadline per channel (-inf = clear).
        self.fan_until = _INACTIVE
        self.fan_severity = 0.0
        self.block_until = _INACTIVE
        self.block_severity = 0.0
        self.crac_until = _INACTIVE
        self.heater_until = _INACTIVE
        self.ice_severity = 0.0
        self.feed_until: List[float] = [_INACTIVE] * len(FEED_GROUPS)

        # Protective-trip runtime for the one tent pod.  The emergency
        # flap itself lives on the actuator bus; see the property below.
        self.tripped = False
        self.stage = 0
        self.stage_deadline = math.inf
        self.restore_at = math.inf

        # Hosts we powered down, in shed order, per cause.
        self._shed_trip: List[int] = []
        self._shed_feed: List[List[int]] = [[] for _ in FEED_GROUPS]

        # Fault-plan cursors.
        self._next_fault = 0
        self._storm_day = 0
        self._pending: List[Tuple[float, PlantFault]] = []

        # Survival census.
        self.census: Dict[str, float] = {
            "faults_injected": 0,
            "faults_repaired": 0,
            "trips": 0,
            "trip_clears": 0,
            "hosts_shed": 0,
            "hosts_restored": 0,
            "host_hours_shed": 0.0,
            "excursion_minutes": 0.0,
            "hosts_lost": 0,
        }
        if self.bus is not None:
            self.bus.subscribe(HostFailed, self._on_host_failed)

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
        self._start_s = start
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
    # Census helpers
    # ------------------------------------------------------------------
    @property
    def incident_active(self) -> bool:
        """Is any plant fault or protective action in force right now?"""
        return (
            self.fan_until != _INACTIVE
            or self.block_until != _INACTIVE
            or self.crac_until != _INACTIVE
            or self.heater_until != _INACTIVE
            or any(u != _INACTIVE for u in self.feed_until)
            or self.tripped
            or self.stage > 0
            or bool(self._shed_trip)
            or any(self._shed_feed[i] for i in range(len(FEED_GROUPS)))
        )

    def _on_host_failed(self, event: HostFailed) -> None:
        if self.incident_active:
            self.census["hosts_lost"] += 1

    def shed_host_count(self) -> int:
        return len(self._shed_trip) + sum(len(ids) for ids in self._shed_feed)

    @property
    def flap_open(self) -> bool:
        """The emergency flap, delegated to the actuator bus."""
        return self.actuators.flap_open

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        dt = 0.0 if self._last_now is None else now - self._last_now
        if self._start_s is None:
            self._start_s = now
        self.census["host_hours_shed"] += self.shed_host_count() * dt / 3600.0

        self._sample_storms(now)
        self._activate_due(now)
        self._expire(now)
        self._accrete_ice(now, dt)
        self._apply_airflow()
        self._evaluate_trip(now, dt)
        self._last_now = now

    # -- fault plan -----------------------------------------------------
    def _storm_domains(self, kind: PlantFaultKind) -> range:
        if kind is PlantFaultKind.FEED_DROP:
            return range(len(FEED_GROUPS))
        return range(1)

    def _sample_storms(self, now: float) -> None:
        if not self.plan.storms or self._start_s is None:
            return
        last_day = int((now - self._start_s) // DAY_S)
        while self._storm_day <= last_day:
            day = self._storm_day
            for storm in self.plan.storms:
                if day < storm.first_day:
                    continue
                if storm.last_day is not None and day > storm.last_day:
                    continue
                for domain in self._storm_domains(storm.kind):
                    fault = storm.fault_for(domain, day)
                    if fault is not None:
                        self._pending.append(
                            (self._start_s + fault.start_s, fault)
                        )
            self._storm_day += 1
        self._pending.sort(
            key=lambda item: (
                item[0],
                item[1].kind.value,
                -1 if item[1].pod is None else item[1].pod,
                -1 if item[1].feed is None else item[1].feed,
            )
        )

    def _activate_due(self, now: float) -> None:
        faults = self.plan.faults
        while self._next_fault < len(faults):
            fault = faults[self._next_fault]
            start = (self._start_s or 0.0) + fault.start_s
            if start > now:
                break
            self._next_fault += 1
            self._activate(fault, start, now)
        while self._pending and self._pending[0][0] <= now:
            start, fault = self._pending.pop(0)
            self._activate(fault, start, now)

    def _activate(self, fault: PlantFault, start: float, now: float) -> None:
        until = start + fault.repair_s
        if until <= now:
            return  # struck and repaired entirely within this tick
        kind = fault.kind
        if kind is PlantFaultKind.FAN_FAILURE:
            self.fan_until = max(self.fan_until, until)
            self.fan_severity = max(self.fan_severity, fault.severity)
        elif kind is PlantFaultKind.INTAKE_BLOCKAGE:
            self.block_until = max(self.block_until, until)
            self.block_severity = max(self.block_severity, fault.severity)
        elif kind is PlantFaultKind.CRAC_OUTAGE:
            self.crac_until = max(self.crac_until, until)
            self.fleet.basement.fail_crac(now)
        elif kind is PlantFaultKind.HEATER_LOSS:
            self.heater_until = max(self.heater_until, until)
        elif kind is PlantFaultKind.FEED_DROP:
            feed = fault.feed if fault.feed is not None else 0
            if feed >= len(FEED_GROUPS):
                return
            fresh = self.feed_until[feed] == _INACTIVE
            self.feed_until[feed] = max(self.feed_until[feed], until)
            if fresh:
                self._drop_feed(feed, now)
        self.census["faults_injected"] += 1
        if self.bus is not None:
            domain = 0 if kind in POD_SCOPED else -1
            if kind is PlantFaultKind.FEED_DROP:
                domain = fault.feed if fault.feed is not None else 0
            self.bus.publish(
                PlantFaultInjected(
                    time=now,
                    kind=kind.value,
                    domain=domain,
                    severity=fault.severity,
                    repair_s=until - start,
                )
            )

    def _expire(self, now: float) -> None:
        def repaired(kind: PlantFaultKind, domain: int = -1) -> None:
            self.census["faults_repaired"] += 1
            if self.bus is not None:
                self.bus.publish(
                    PlantFaultRepaired(time=now, kind=kind.value, domain=domain)
                )

        if self.fan_until != _INACTIVE and self.fan_until <= now:
            self.fan_until = _INACTIVE
            self.fan_severity = 0.0
            repaired(PlantFaultKind.FAN_FAILURE, 0)
        if self.block_until != _INACTIVE and self.block_until <= now:
            self.block_until = _INACTIVE
            self.block_severity = 0.0
            repaired(PlantFaultKind.INTAKE_BLOCKAGE, 0)
        if self.crac_until != _INACTIVE and self.crac_until <= now:
            self.crac_until = _INACTIVE
            self.fleet.basement.repair_crac(now)
            repaired(PlantFaultKind.CRAC_OUTAGE)
        if self.heater_until != _INACTIVE and self.heater_until <= now:
            self.heater_until = _INACTIVE
            self.ice_severity = 0.0
            repaired(PlantFaultKind.HEATER_LOSS)
        for feed in range(len(FEED_GROUPS)):
            if self.feed_until[feed] != _INACTIVE and self.feed_until[feed] <= now:
                self.feed_until[feed] = _INACTIVE
                self._restore_feed(feed, now)
                repaired(PlantFaultKind.FEED_DROP, feed)

    def _accrete_ice(self, now: float, dt: float) -> None:
        if self.heater_until == _INACTIVE or dt <= 0:
            return
        outside = self.fleet.weather.sample(now).temp_c
        if outside < 0.0:
            self.ice_severity = min(
                ICE_SEVERITY_CAP, self.ice_severity + ICE_ACCRETION_PER_H * dt / 3600.0
            )

    def _apply_airflow(self) -> None:
        blockage = max(self.block_severity, self.ice_severity)
        self.actuators.set_plant_degradation(self.fan_severity, blockage)

    # -- power feeds ----------------------------------------------------
    def _group_hosts(self, feed: int) -> List[Host]:
        return self.fleet.hosts_in_group(FEED_GROUPS[feed])

    def _drop_feed(self, feed: int, now: float) -> None:
        shed = self._shed_feed[feed]
        for host in self._group_hosts(feed):
            if host.state is HostState.RUNNING:
                self.actuators.power_down(host, now, reason="feed drop")
                shed.append(host.host_id)
        if shed:
            self.census["hosts_shed"] += len(shed)
            if self.bus is not None:
                self.bus.publish(
                    LoadShed(time=now, pod=feed, hosts=len(shed), stage=0, reason="feed")
                )

    def _restore_feed(self, feed: int, now: float) -> None:
        shed = self._shed_feed[feed]
        restored = 0
        for host_id in shed:
            host = self.fleet.host(host_id)
            if host.state is HostState.SHED:
                self.actuators.power_up(host, now)
                restored += 1
        self._shed_feed[feed] = []
        if restored:
            self.census["hosts_restored"] += restored
            if self.bus is not None:
                self.bus.publish(
                    LoadRestored(time=now, pod=feed, hosts=restored, reason="feed")
                )

    # -- protective trips ----------------------------------------------
    def _evaluate_trip(self, now: float, dt: float) -> None:
        intake = self.fleet.tent.intake_temp_c
        trip_c = self.policy.trip_c if self.policy is not None else _EXCURSION_C
        if intake >= trip_c and dt > 0:
            self.census["excursion_minutes"] += dt / 60.0
        if self.policy is None:
            return
        policy = self.policy
        hot = intake >= policy.trip_c

        if not self.tripped and hot:
            self.tripped = True
            self.stage = max(1, self.stage)
            self.stage_deadline = now + policy.stage_hold_s
            self.restore_at = math.inf
            self.census["trips"] += 1
            if self.bus is not None:
                self.bus.publish(
                    ThermalTrip(time=now, pod=0, intake_c=intake, stage=self.stage)
                )
            if policy.emergency_flap and not self.flap_open:
                if self.bus is not None:
                    self.bus.publish(EmergencyFlapOpened(time=now, pod=0))
                self.actuators.set_flap(True, now)
            self._shed_to_stage(now)
        elif self.tripped and hot and self.stage_deadline <= now and self.stage < policy.max_stage:
            self.stage += 1
            self.stage_deadline = now + policy.stage_hold_s
            if self.bus is not None:
                self.bus.publish(
                    ThermalTrip(time=now, pod=0, intake_c=intake, stage=self.stage)
                )
            self._shed_to_stage(now)
        elif self.tripped and intake <= policy.clear_c:
            self.tripped = False
            self.stage_deadline = math.inf
            self.restore_at = now + policy.cooldown_s
            self.census["trip_clears"] += 1
            if self.bus is not None:
                self.bus.publish(ThermalTripCleared(time=now, pod=0, intake_c=intake))
            if self.flap_open:
                if self.bus is not None:
                    self.bus.publish(EmergencyFlapClosed(time=now, pod=0))
                self.actuators.set_flap(False, now)
        elif not self.tripped and self.stage > 0 and self.restore_at <= now:
            self.stage = 0
            self.restore_at = math.inf
            restored = 0
            for host_id in self._shed_trip:
                host = self.fleet.host(host_id)
                if host.state is HostState.SHED:
                    self.actuators.power_up(host, now)
                    restored += 1
            self._shed_trip = []
            if restored:
                self.census["hosts_restored"] += restored
                if self.bus is not None:
                    self.bus.publish(
                        LoadRestored(time=now, pod=0, hosts=restored, reason="trip")
                    )

    def _shed_to_stage(self, now: float) -> None:
        """Power hosts down until the stage's shed fraction is met."""
        policy = self.policy
        assert policy is not None
        group = sorted(self._group_hosts(0), key=lambda h: h.host_id)
        if not group:
            return
        target = int(math.ceil(policy.stage_fraction(self.stage) * len(group)))
        shed_now = 0
        for host in group:
            if len(self._shed_trip) >= target:
                break
            if host.state is HostState.RUNNING and host.host_id not in self._shed_trip:
                self.actuators.power_down(host, now, reason="thermal trip")
                self._shed_trip.append(host.host_id)
                shed_now += 1
        if shed_now:
            self.census["hosts_shed"] += shed_now
            if self.bus is not None:
                self.bus.publish(
                    LoadShed(
                        time=now, pod=0, hosts=shed_now, stage=self.stage, reason="trip"
                    )
                )

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": self.STATE_VERSION,
            "start_s": self._start_s,
            "last_now": self._last_now,
            "tick_task_id": (
                self._tick_handle.task_id if self._tick_handle is not None else None
            ),
            "fan": [self.fan_until, self.fan_severity],
            "block": [self.block_until, self.block_severity],
            "crac_until": self.crac_until,
            "heater": [self.heater_until, self.ice_severity],
            "feed_until": list(self.feed_until),
            "trip": {
                "tripped": self.tripped,
                "stage": self.stage,
                "stage_deadline": self.stage_deadline,
                "restore_at": self.restore_at,
                "flap_open": self.flap_open,
            },
            "shed_trip": list(self._shed_trip),
            "shed_feed": [list(ids) for ids in self._shed_feed],
            "next_fault": self._next_fault,
            "storm_day": self._storm_day,
            "pending": [
                [start, encode_value(fault)] for start, fault in self._pending
            ],
            "census": dict(self.census),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        check_version("PlantController", state, self.STATE_VERSION)
        self._start_s = state["start_s"]
        self._last_now = state["last_now"]
        self._restore_task_id = state.get("tick_task_id")
        self.fan_until, self.fan_severity = (float(v) for v in state["fan"])
        self.block_until, self.block_severity = (float(v) for v in state["block"])
        self.crac_until = float(state["crac_until"])
        self.heater_until, self.ice_severity = (float(v) for v in state["heater"])
        self.feed_until = [float(v) for v in state["feed_until"]]
        trip = state["trip"]
        self.tripped = bool(trip["tripped"])
        self.stage = int(trip["stage"])
        self.stage_deadline = float(trip["stage_deadline"])
        self.restore_at = float(trip["restore_at"])
        # The flap lives on the bus; set the fields directly (the tent's
        # airflow factors are restored by the fleet's own snapshot, so
        # nothing should be re-applied here).
        self.actuators.flap_open = bool(trip["flap_open"])
        self.actuators.fan_severity = self.fan_severity
        self.actuators.blockage = max(self.block_severity, self.ice_severity)
        self._shed_trip = [int(v) for v in state["shed_trip"]]
        self._shed_feed = [[int(v) for v in ids] for ids in state["shed_feed"]]
        self._next_fault = int(state["next_fault"])
        self._storm_day = int(state["storm_day"])
        self._pending = [
            (float(start), decode_value(encoded))
            for start, encoded in state["pending"]
        ]
        self.census = dict(state["census"])
