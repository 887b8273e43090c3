"""The plant state machine, vectorized over pods.

:class:`FleetPlant` is the one implementation of every plant decision:
the fault schedule cursor, storm sampling, fault activation and expiry,
ice accretion, per-pod airflow degradation, the power-feed masks,
CRAC/heater site state, the per-pod protective-trip state machine, and
the survival-census counters.  Two adapters carry its decisions out:

- ``FleetScaleCampaign`` (batch mode) runs it over thousands of pods
  and applies them to its cohort arrays;
- :class:`~repro.plant.controller.PlantController` runs it as a
  one-pod instance with two feeds (feed 0 = tent, feed 1 = basement)
  and applies them to the paper campaign's host and enclosure objects.

The adapter calls :meth:`advance` once per tick (after weather, before
thermal) and :meth:`evaluate` after thermal.  :meth:`advance` walks the
fault schedule one due fault at a time; :meth:`evaluate` applies each
trip transition (fire, escalate, clear, restore) to all its pods as one
masked array update, and its python loops only publish events, one per
pod, in transition order.  Both return at once on a tick with nothing
due, so the per-tick cost of a quiet plant is a few comparisons.

Determinism: storm coins are stateless (pure functions of
``(seed, kind, domain, day)``, see :class:`~repro.plant.faults.PlantStorm`),
scheduled faults are data, and nothing here touches the campaign's
pooled RNG -- so two runs with the same plan agree fault-for-fault
regardless of host count, job fan-out, or kill-and-resume.  The whole
object round-trips through :meth:`state_dict`/:meth:`load_state_dict`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.plant.faults import (
    DAY_S,
    FEED_GROUP_PODS,
    ICE_ACCRETION_PER_H,
    ICE_SEVERITY_CAP,
    POD_SCOPED,
    PlantFault,
    PlantFaultKind,
    PlantFaultPlan,
    airflow_factors,
)
from repro.plant.trip import ThermalTripPolicy
from repro.sim import events as ev
from repro.state.protocol import StateError, check_version
from repro.thermal.enclosure import CRAC_OUTAGE_APPROACH_C, crac_drift

_INACTIVE = -math.inf

#: Intake temperature counted as an excursion when no trip policy is
#: armed (the stock :class:`ThermalTripPolicy` threshold).
EXCURSION_C = ThermalTripPolicy.trip_c

#: The survival-census counters, in their canonical order.
CENSUS_KEYS = (
    "faults_injected",
    "faults_repaired",
    "trips",
    "trip_clears",
    "hosts_shed",
    "hosts_restored",
    "host_hours_shed",
    "excursion_minutes",
    "hosts_lost",
)

_NO_ACTIONS: Tuple[Tuple[Tuple[int, int, float], ...], Tuple[int, ...]] = ((), ())


class FleetPlant:
    """Plant state for ``n_pods`` pods on ``n_feeds`` power feeds.

    ``n_feeds`` defaults to one feed per :data:`FEED_GROUP_PODS` pods.
    ``on_feed_drop`` / ``on_feed_restore`` are called with a feed index
    when the feed goes down (after the tick's activations) and when it
    comes back (just before its repair is published).
    """

    STATE_VERSION = 1

    def __init__(
        self,
        plan: Optional[PlantFaultPlan],
        policy: Optional[ThermalTripPolicy],
        n_pods: int,
        start_s: float,
        bus: Optional[ev.EventBus] = None,
        n_feeds: Optional[int] = None,
        on_feed_drop: Optional[Callable[[int], None]] = None,
        on_feed_restore: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.plan = plan if plan is not None else PlantFaultPlan()
        self.policy = policy
        self.n_pods = int(n_pods)
        self.n_feeds = (
            int(n_feeds)
            if n_feeds is not None
            else (self.n_pods + FEED_GROUP_PODS - 1) // FEED_GROUP_PODS
        )
        self.start_s = float(start_s)
        self.bus = bus
        self.on_feed_drop = on_feed_drop
        self.on_feed_restore = on_feed_restore

        # Airflow faults: per-pod (targeted / storm strikes) plus one
        # site-wide channel per kind (scheduled faults with pod=None).
        self.fan_until = np.full(self.n_pods, _INACTIVE)
        self.fan_severity = np.zeros(self.n_pods)
        self.block_until = np.full(self.n_pods, _INACTIVE)
        self.block_severity = np.zeros(self.n_pods)
        self.fan_all_until = _INACTIVE
        self.fan_all_severity = 0.0
        self.block_all_until = _INACTIVE
        self.block_all_severity = 0.0

        # Power feeds, CRAC, intake heater (site scalars).
        self.feed_until = np.full(self.n_feeds, _INACTIVE)
        self.crac_until = _INACTIVE
        self.crac_recovering = False
        self.heater_until = _INACTIVE
        self.ice_severity = 0.0

        # Protective-trip state machine, per pod.
        self.tripped = np.zeros(self.n_pods, dtype=np.bool_)
        self.stage = np.zeros(self.n_pods, dtype=np.int8)
        self.stage_deadline = np.full(self.n_pods, np.inf)
        self.restore_at = np.full(self.n_pods, np.inf)
        self.flap = np.zeros(self.n_pods, dtype=np.bool_)

        # Fault-schedule cursors.
        self._next_fault = 0  # into plan.faults (sorted by start_day)
        self._storm_day = 0  # next day index to sample
        self._pending: List[Tuple[float, PlantFault]] = []

        # Survival census counters.
        self.faults_injected = 0
        self.faults_repaired = 0
        self.trips = 0
        self.trip_clears = 0
        self.hosts_shed = 0
        self.hosts_restored = 0
        self.host_hours_shed = 0.0
        self.excursion_minutes = 0.0
        self.hosts_lost = 0

        self._refresh(-math.inf)

    def _refresh(self, now: float) -> None:
        """Recompose airflow and the quiet-tick gates from the state."""
        self._compose_factors(now)
        self._next_due = self._earliest_due()
        self._trip_gates()

    # ------------------------------------------------------------------
    # Fault schedule
    # ------------------------------------------------------------------
    def _publish(self, event: ev.Event) -> None:
        if self.bus is not None:
            self.bus.publish(event)

    def _storm_domains(self, kind: PlantFaultKind) -> range:
        if kind in POD_SCOPED:
            return range(self.n_pods)
        if kind is PlantFaultKind.FEED_DROP:
            return range(self.n_feeds)
        return range(1)  # site-scoped: one coin per day

    def _storm_day_start(self) -> float:
        return self.start_s + self._storm_day * DAY_S

    def _sample_storms(self, now: float) -> None:
        """Flip the daily coins for every campaign day reached so far."""
        if not self.plan.storms:
            return
        sampled = False
        while self._storm_day_start() <= now:
            day = self._storm_day
            for storm in self.plan.storms:
                for domain in self._storm_domains(storm.kind):
                    fault = storm.fault_for(domain, day)
                    if fault is not None:
                        self._pending.append((self.start_s + fault.start_s, fault))
                        sampled = True
            self._storm_day += 1
        if sampled:
            self._pending.sort(
                key=lambda item: (
                    item[0],
                    item[1].kind.value,
                    -1 if item[1].pod is None else item[1].pod,
                    -1 if item[1].feed is None else item[1].feed,
                )
            )

    def _earliest_due(self) -> float:
        """The next instant :meth:`advance` has work: a fault start, a
        repair deadline or a new storm day (``inf`` when none)."""
        due = [
            until
            for until in (
                self.fan_all_until,
                self.block_all_until,
                self.crac_until,
                self.heater_until,
            )
            if until != _INACTIVE
        ]
        for until in (self.fan_until, self.block_until, self.feed_until):
            active = until[until != _INACTIVE]
            if active.size:
                due.append(float(active.min()))
        if self._next_fault < len(self.plan.faults):
            due.append(self.start_s + self.plan.faults[self._next_fault].start_s)
        if self._pending:
            due.append(self._pending[0][0])
        if self.plan.storms:
            due.append(self._storm_day_start())
        return min(due, default=math.inf)

    def _activate(self, fault: PlantFault, start: float, now: float) -> None:
        """Apply one fault whose start time has arrived."""
        until = start + fault.repair_s
        if until <= now:
            return  # struck and repaired entirely between ticks
        kind = fault.kind
        domain = -1
        if kind is PlantFaultKind.FAN_FAILURE:
            if fault.pod is None:
                self.fan_all_until = max(self.fan_all_until, until)
                self.fan_all_severity = max(self.fan_all_severity, fault.severity)
            elif fault.pod < self.n_pods:
                domain = fault.pod
                self.fan_until[domain] = max(self.fan_until[domain], until)
                self.fan_severity[domain] = max(
                    self.fan_severity[domain], fault.severity
                )
            else:
                return  # targets a pod this site does not have
        elif kind is PlantFaultKind.INTAKE_BLOCKAGE:
            if fault.pod is None:
                self.block_all_until = max(self.block_all_until, until)
                self.block_all_severity = max(
                    self.block_all_severity, fault.severity
                )
            elif fault.pod < self.n_pods:
                domain = fault.pod
                self.block_until[domain] = max(self.block_until[domain], until)
                self.block_severity[domain] = max(
                    self.block_severity[domain], fault.severity
                )
            else:
                return
        elif kind is PlantFaultKind.CRAC_OUTAGE:
            self.crac_until = max(self.crac_until, until)
            self.crac_recovering = False
        elif kind is PlantFaultKind.HEATER_LOSS:
            self.heater_until = max(self.heater_until, until)
        elif kind is PlantFaultKind.FEED_DROP:
            if fault.feed is None:
                self.feed_until[:] = np.maximum(self.feed_until, until)
            elif fault.feed < self.n_feeds:
                domain = fault.feed
                self.feed_until[domain] = max(self.feed_until[domain], until)
            else:
                return
        self.faults_injected += 1
        self._publish(
            ev.PlantFaultInjected(
                time=now,
                kind=kind.value,
                domain=domain,
                severity=fault.severity,
                repair_s=fault.repair_s,
            )
        )

    def _repaired(self, now: float, kind: PlantFaultKind, domain: int) -> None:
        self.faults_repaired += 1
        self._publish(ev.PlantFaultRepaired(time=now, kind=kind.value, domain=domain))

    def _expire_pods(
        self, until: np.ndarray, severity: np.ndarray, kind: PlantFaultKind,
        now: float,
    ) -> None:
        expired = np.isfinite(until) & (until <= now)
        for pod in np.flatnonzero(expired):
            self._repaired(now, kind, int(pod))
        until[expired] = _INACTIVE
        severity[expired] = 0.0

    def _expire(self, now: float) -> None:
        """Lift faults whose repair time has passed, publishing repairs."""
        fan, block = PlantFaultKind.FAN_FAILURE, PlantFaultKind.INTAKE_BLOCKAGE
        self._expire_pods(self.fan_until, self.fan_severity, fan, now)
        if math.isfinite(self.fan_all_until) and self.fan_all_until <= now:
            self.fan_all_until, self.fan_all_severity = _INACTIVE, 0.0
            self._repaired(now, fan, -1)
        self._expire_pods(self.block_until, self.block_severity, block, now)
        if math.isfinite(self.block_all_until) and self.block_all_until <= now:
            self.block_all_until, self.block_all_severity = _INACTIVE, 0.0
            self._repaired(now, block, -1)
        if math.isfinite(self.crac_until) and self.crac_until <= now:
            self.crac_until = _INACTIVE
            self.crac_recovering = True
            self._repaired(now, PlantFaultKind.CRAC_OUTAGE, -1)
        if math.isfinite(self.heater_until) and self.heater_until <= now:
            self.heater_until = _INACTIVE
            self.ice_severity = 0.0  # crew clears the accreted ice too
            self._repaired(now, PlantFaultKind.HEATER_LOSS, -1)
        expired = np.isfinite(self.feed_until) & (self.feed_until <= now)
        for feed in np.flatnonzero(expired):
            self.feed_until[feed] = _INACTIVE
            if self.on_feed_restore is not None:
                self.on_feed_restore(int(feed))
            self._repaired(now, PlantFaultKind.FEED_DROP, int(feed))

    def advance(self, now: float, dt_s: float, outside_c: float) -> None:
        """One tick of fault-schedule progress.

        Samples any newly reached storm days, activates due faults
        (then reports feeds that just went down), expires due repairs,
        accretes intake ice when the heater is down in sub-zero air,
        and recomposes the per-pod airflow factors.
        """
        if now < self._next_due and self.heater_until == _INACTIVE:
            return  # nothing due, nothing accreting: the state stands
        self._sample_storms(now)

        feed_was_down = self.feed_until > now  # before new activations
        faults = self.plan.faults
        while self._next_fault < len(faults):
            fault = faults[self._next_fault]
            start = self.start_s + fault.start_s
            if start > now:
                break
            self._activate(fault, start, now)
            self._next_fault += 1
        while self._pending and self._pending[0][0] <= now:
            start, fault = self._pending.pop(0)
            self._activate(fault, start, now)
        if self.on_feed_drop is not None:
            for feed in np.flatnonzero((self.feed_until > now) & ~feed_was_down):
                self.on_feed_drop(int(feed))
        self._expire(now)

        # Ice accretion on the unheated intake path.
        if self.heater_until > now and outside_c < 0.0:
            self.ice_severity = min(
                ICE_SEVERITY_CAP,
                self.ice_severity + ICE_ACCRETION_PER_H * dt_s / 3600.0,
            )

        self._compose_factors(now)
        self._next_due = self._earliest_due()

    def _compose_factors(self, now: float) -> None:
        """Per-pod fan and blockage levels, and the airflow they leave.

        A pod's level is the worse of its own fault and the site-wide
        one; accreted ice chokes the intake like a blockage (max).
        """
        fan = np.where(self.fan_until > now, self.fan_severity, 0.0)
        if self.fan_all_until > now:
            fan = np.maximum(fan, self.fan_all_severity)
        block = np.where(self.block_until > now, self.block_severity, 0.0)
        if self.block_all_until > now:
            block = np.maximum(block, self.block_all_severity)
        if self.ice_severity > 0.0:
            block = np.maximum(block, self.ice_severity)
        self.fan_level = fan
        self.block_level = block
        self.ua_factor, self.ach_factor = airflow_factors(fan, block, self.flap)

    @property
    def degraded(self) -> bool:
        """True when any airflow factor differs from 1.0 (fast-path gate)."""
        return bool(
            (self.ua_factor != 1.0).any() or (self.ach_factor != 1.0).any()
        )

    # ------------------------------------------------------------------
    # CRAC consequences
    # ------------------------------------------------------------------
    def crac_down(self, now: float) -> bool:
        return self.crac_until > now

    def basement_temp(
        self, now: float, dt_s: float, prev_c: float, analytic_c: float,
        outside_c: float,
    ) -> float:
        """Machine-room temperature given the CRAC's state.

        Healthy: the analytic setpoint curve, untouched (the byte-
        identity fast path).  Otherwise the room drifts as
        :func:`~repro.thermal.enclosure.crac_drift` says.
        """
        if self.crac_down(now):
            target = outside_c + CRAC_OUTAGE_APPROACH_C
        elif self.crac_recovering:
            target = analytic_c
        else:
            return analytic_c
        temp, self.crac_recovering = crac_drift(
            prev_c, target, dt_s, self.crac_recovering, analytic_c
        )
        return temp

    # ------------------------------------------------------------------
    # Protective trips
    # ------------------------------------------------------------------
    def evaluate(
        self, now: float, dt_s: float, pod_intake_c: np.ndarray
    ) -> Tuple[List[Tuple[int, int, float]], List[int]]:
        """Run the trip state machine against this tick's pod intakes.

        Returns ``(shed, restore)``: ``shed`` lists ``(pod, stage,
        cumulative_fraction)`` for pods whose shedding should be
        (re)applied, ``restore`` lists pods whose trip-shed hosts are
        due to power back up.
        """
        pol = self.policy
        threshold = pol.trip_c if pol is not None else EXCURSION_C
        # .item() on a one-pod site skips a ufunc reduction per tick.
        one = self.n_pods == 1
        none_hot = (pod_intake_c.item() if one else pod_intake_c.max()) < threshold
        if not none_hot:
            hot_pods = float((pod_intake_c >= threshold).sum())
            self.excursion_minutes += hot_pods * dt_s / 60.0
        if pol is None or self._quiet(now, none_hot, pod_intake_c):
            return _NO_ACTIONS
        hot = pod_intake_c >= threshold

        hold_until = now + pol.stage_hold_s
        publish = self._publish
        shed: List[Tuple[int, int, float]] = []

        # Each transition updates its pods in one masked pass; the loops
        # only publish, pod by pod, in the order the plant decided.
        # ndarray.nonzero skips np.flatnonzero's wrappers (one-pod ticks).
        fire = (~self.tripped & hot).nonzero()[0]
        if len(fire):
            self.tripped[fire] = True
            self.stage[fire] = np.maximum(self.stage[fire], 1)
            self.stage_deadline[fire] = hold_until
            self.restore_at[fire] = np.inf
            self.trips += len(fire)
            opened = ~self.flap[fire] & pol.emergency_flap
            self.flap[fire[opened]] = True
            for p, intake_c, stage, flap_opened in zip(
                fire.tolist(),
                pod_intake_c[fire].tolist(),
                self.stage[fire].tolist(),
                opened.tolist(),
            ):
                publish(ev.ThermalTrip(time=now, pod=p, intake_c=intake_c, stage=stage))
                if flap_opened:
                    publish(ev.EmergencyFlapOpened(time=now, pod=p))
                shed.append((p, stage, pol.stage_fraction(stage)))

        escalate = (
            self.tripped
            & hot
            & (self.stage_deadline <= now)
            & (self.stage < pol.max_stage)
        ).nonzero()[0]
        if len(escalate):
            self.stage[escalate] += 1
            self.stage_deadline[escalate] = hold_until
            for p, intake_c, stage in zip(
                escalate.tolist(),
                pod_intake_c[escalate].tolist(),
                self.stage[escalate].tolist(),
            ):
                publish(ev.ThermalTrip(time=now, pod=p, intake_c=intake_c, stage=stage))
                shed.append((p, stage, pol.stage_fraction(stage)))

        clear = (self.tripped & (pod_intake_c <= pol.clear_c)).nonzero()[0]
        if len(clear):
            self.tripped[clear] = False
            self.stage_deadline[clear] = np.inf
            self.restore_at[clear] = now + pol.cooldown_s
            self.trip_clears += len(clear)
            closed = self.flap[clear]
            self.flap[clear] = False
            for p, intake_c, flap_closed in zip(
                clear.tolist(), pod_intake_c[clear].tolist(), closed.tolist()
            ):
                publish(ev.ThermalTripCleared(time=now, pod=p, intake_c=intake_c))
                if flap_closed:
                    publish(ev.EmergencyFlapClosed(time=now, pod=p))

        due = (~self.tripped & (self.stage > 0) & (self.restore_at <= now)).nonzero()[0]
        if len(due):
            self.stage[due] = 0
            self.restore_at[due] = np.inf
        restore = due.tolist()

        if shed or len(clear) or restore:
            self._compose_factors(now)  # flap changes feed back into airflow
            self._trip_gates()
        return shed, restore

    def _trip_gates(self) -> None:
        """Cache what :meth:`_quiet` needs; rebuilt on every transition."""
        self._n_tripped = int(self.tripped.sum())
        self._next_restore = float(self.restore_at.min(initial=np.inf))
        max_stage = self.policy.max_stage if self.policy is not None else 0
        escalating = self.tripped & (self.stage < max_stage)
        self._next_escalate = float(
            np.where(escalating, self.stage_deadline, np.inf).min(initial=np.inf)
        )

    def _quiet(self, now: float, none_hot: bool, pod_intake_c: np.ndarray) -> bool:
        """True when no trip transition can happen this tick.

        Decided from cached gates when no pod or every pod is tripped;
        a mix always runs the full state machine.
        """
        if self._n_tripped == 0:
            # Only a hot pod can trip, only a due cool-down can restore.
            return none_hot and now < self._next_restore
        if self._n_tripped == self.n_pods:
            # Only a cool pod can clear, only a hot one past its stage
            # hold can escalate.
            coolest = pod_intake_c.item() if self.n_pods == 1 else pod_intake_c.min()
            return coolest > self.policy.clear_c and (
                none_hot or now < self._next_escalate
            )
        return False

    def incident_pods(self, now: float) -> np.ndarray:
        """Pods currently inside an incident (for loss attribution)."""
        if (
            self.fan_all_until > now
            or self.block_all_until > now
            or self.crac_until > now
            or self.heater_until > now
        ):
            return np.ones(self.n_pods, dtype=np.bool_)
        active = (
            (self.fan_until > now)
            | (self.block_until > now)
            | self.tripped
            | (self.stage > 0)
        )
        feed_down = self.feed_until > now
        if feed_down.any():
            pod_feed = np.arange(self.n_pods) // FEED_GROUP_PODS
            active = active | feed_down[pod_feed]
        return active

    def census(self) -> Dict[str, Any]:
        """The survival-census counters, in their canonical order."""
        return {key: getattr(self, key) for key in CENSUS_KEYS}

    # ------------------------------------------------------------------
    # Snapshot plane
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        from repro.state.codec import encode_value, pack_bools, pack_floats, pack_ints

        return {
            "version": self.STATE_VERSION,
            "fan_until": pack_floats(self.fan_until),
            "fan_severity": pack_floats(self.fan_severity),
            "block_until": pack_floats(self.block_until),
            "block_severity": pack_floats(self.block_severity),
            "fan_all": [self.fan_all_until, self.fan_all_severity],
            "block_all": [self.block_all_until, self.block_all_severity],
            "feed_until": pack_floats(self.feed_until),
            "crac": [self.crac_until, bool(self.crac_recovering)],
            "heater": [self.heater_until, self.ice_severity],
            "tripped": pack_bools(self.tripped),
            "stage": pack_ints(self.stage),
            "stage_deadline": pack_floats(self.stage_deadline),
            "restore_at": pack_floats(self.restore_at),
            "flap": pack_bools(self.flap),
            "cursor": [self._next_fault, self._storm_day],
            "pending": [
                [start, encode_value(fault)] for start, fault in self._pending
            ],
            "census": [getattr(self, key) for key in CENSUS_KEYS],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a freshly constructed plant; malformed state raises
        :class:`~repro.state.protocol.StateError`."""
        from repro.state.codec import (
            decode_value,
            unpack_bools,
            unpack_floats,
            unpack_ints,
        )
        check_version("FleetPlant", state, self.STATE_VERSION)
        pods, feeds = self.n_pods, self.n_feeds

        def column(key: str, unpack, size: int, dtype=np.float64) -> np.ndarray:
            values = np.array(unpack(state[key]), dtype=dtype)
            if values.shape != (size,):
                raise ValueError(f"{key} holds {values.size} values, expected {size}")
            return values

        try:
            self.fan_until = column("fan_until", unpack_floats, pods)
            self.fan_severity = column("fan_severity", unpack_floats, pods)
            self.block_until = column("block_until", unpack_floats, pods)
            self.block_severity = column("block_severity", unpack_floats, pods)
            self.fan_all_until, self.fan_all_severity = (
                float(v) for v in state["fan_all"]
            )
            self.block_all_until, self.block_all_severity = (
                float(v) for v in state["block_all"]
            )
            self.feed_until = column("feed_until", unpack_floats, feeds)
            crac_until, recovering = state["crac"]
            self.crac_until, self.crac_recovering = float(crac_until), bool(recovering)
            self.heater_until, self.ice_severity = (float(v) for v in state["heater"])
            self.tripped = column("tripped", unpack_bools, pods, np.bool_)
            self.stage = column("stage", unpack_ints, pods, np.int8)
            self.stage_deadline = column("stage_deadline", unpack_floats, pods)
            self.restore_at = column("restore_at", unpack_floats, pods)
            self.flap = column("flap", unpack_bools, pods, np.bool_)
            self._next_fault, self._storm_day = (int(c) for c in state["cursor"])
            self._pending = [
                (float(start), decode_value(fault))
                for start, fault in state["pending"]
            ]
            census = list(state["census"])
            if len(census) != len(CENSUS_KEYS):
                raise ValueError(f"census holds {len(census)} counters")
            for key, value in zip(CENSUS_KEYS, census):
                setattr(self, key, value)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise StateError(f"FleetPlant: malformed state ({exc})") from None
        self._refresh(-math.inf)  # factors rebuilt on next advance


def core_state_from_scalar(state: Dict[str, Any]) -> Dict[str, Any]:
    """A one-pod, two-feed :class:`FleetPlant` state from the version-1
    snapshot of the scalar paper plant that preceded it.

    The scalar plant kept one fan and one blockage channel for the tent,
    merging site-wide and pod-0 faults; they become pod 0's channels.
    Feeds 0 (tent) and 1 (basement) keep their meaning.
    """
    from repro.state.codec import pack_bools, pack_floats, pack_ints

    trip = state["trip"]
    census = state["census"]
    return {
        "version": FleetPlant.STATE_VERSION,
        "fan_until": pack_floats([float(state["fan"][0])]),
        "fan_severity": pack_floats([float(state["fan"][1])]),
        "block_until": pack_floats([float(state["block"][0])]),
        "block_severity": pack_floats([float(state["block"][1])]),
        "fan_all": [_INACTIVE, 0.0],
        "block_all": [_INACTIVE, 0.0],
        "feed_until": pack_floats([float(v) for v in state["feed_until"]]),
        "crac": [float(state["crac_until"]), False],
        "heater": [float(v) for v in state["heater"]],
        "tripped": pack_bools([bool(trip["tripped"])]),
        "stage": pack_ints([int(trip["stage"])]),
        "stage_deadline": pack_floats([float(trip["stage_deadline"])]),
        "restore_at": pack_floats([float(trip["restore_at"])]),
        "flap": pack_bools([bool(trip["flap_open"])]),
        "cursor": [int(state["next_fault"]), int(state["storm_day"])],
        "pending": state["pending"],
        "census": [census[key] for key in CENSUS_KEYS],
    }
