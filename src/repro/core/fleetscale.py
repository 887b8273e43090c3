"""Fleet-scale batch cohorts: the paper's campaign at ``--hosts N``.

The faithful path (:class:`~repro.core.deployment.Fleet`) runs the
19-host paper campaign one host object and one named RNG stream at a
time.  This module is the other path: a *batch* simulator that replays
the paper's hardware mix, tent physics, and fault models over an
arbitrarily large cohort -- pods of 19 hosts, each pod a replica of the
paper's vendor lineup under its own tent -- using pure vector arithmetic
per tick.

It is an explicitly *approximate* mode and is not draw-compatible with
the per-object engine:

- RNG draws are pooled (`Generator.random(n)` per hazard family per
  tick) instead of one named stream per host subsystem.
- The archiver's two-phase state machine is replaced by its duty cycle:
  a host is "bursting" for ``burst/600`` of every cycle, so heat uses
  the duty-averaged power and the cold-latch hazard uses the idle-CPU
  die temperature (the coldest point of the cycle, i.e. the
  conservative latch estimate).
- Install staggering, the two-failures-then-indoors policy, and
  per-host SMART ledgers are dropped; failures repair after the
  operator inspection delay and rejoin the fleet.
- Vendor C's mirror+RAID5 pair is approximated as "survives one disk
  loss" (the true layout survives one always and some second losses).

What it preserves: the vendor power/thermal coefficients, the two-node
tent envelope with the R/I/B/F/door modification schedule applied fleet
wide, the shared weather realisation, the transient/memory/disk/sensor
hazard rates, and the basement control group.  The point is cohort
statistics (failure counts, thermal envelopes, energy) at 100k hosts,
not event-for-event reproduction -- ``docs/architecture.md`` spells out
the contract.

The per-tick system pass runs in a fixed order on one batched
``every_key_group`` heap entry (weather -> thermal -> hazards ->
workload).
"""

from __future__ import annotations

import datetime as _dt
import math
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.climate.generator import WeatherGenerator
from repro.core.config import ExperimentConfig
from repro.hardware.vendors import vendor
from repro.plant.faults import FEED_GROUP_PODS, PlantFaultPlan
from repro.plant.fleet import FleetPlant
from repro.plant.trip import ThermalTripPolicy
from repro.sim import events as ev
from repro.sim.clock import SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.thermal.vectorized import TwoNodeTentBank
from repro.workload.kernel_tree import KernelSourceTree

POD_SIZE = 19
CYCLE_PERIOD_S = 600.0
MONITOR_PERIOD_S = 1200.0

# Host state codes (int8 column).
STAGED = 0
RUNNING = 1
FAILED = 2
SHED = 3  # powered down by the plant chaos plane (trip or feed drop)

# shed_reason codes (why a SHED host is down).
_SHED_NONE = 0
_SHED_TRIP = 1
_SHED_FEED = 2

_DISK_TOLERANCE = {"A": 1, "B": 0, "C": 1}


class FleetScaleCampaign:
    """Vectorized cohort simulation of ``n_hosts`` paper-style servers.

    Hosts are laid out in pods of 19: each pod replicates the paper's
    host plan (9 tent hosts, 9 basement twins, 1 staged spare) with the
    same vendor mix.  A partial final pod truncates that lineup.

    Parameters
    ----------
    n_hosts:
        Cohort size.  ``19`` gives one pod -- the paper's fleet shape.
    config:
        Campaign parameters; defaults to the paper configuration.
    tick_interval_s:
        Batch step, default three archiver cycles (1800 s).  Must be a
        whole number of 600 s cycles.  The exponential hazards integrate
        exactly over any step and the tent integrator picks its own
        stability substeps, so a coarser tick trades only monitoring
        granularity for speed.
    record_series:
        Opt into the fleet observatory: per-pod
        :class:`~repro.telemetry.timeseries.SeriesRecorder` signals
        (tent/basement temperature, humidity, cumulative failures by
        class, energy, throughput) captured each frame.  Off by default;
        recording draws no randomness, so the census stays identical
        either way.
    series_capacity:
        Stored samples per signal before the recorder's 2:1 fold
        (default 512; memory is bounded whatever the horizon).
    telemetry:
        Optional :class:`~repro.telemetry.hub.Telemetry` hub.  When set,
        every frame phase (weather/thermal/hazards/workload/observe) is
        timed into a ``fleetscale.*`` span and the run records engine
        health gauges -- the ``repro telemetry --hosts N`` profile.
    plant_faults:
        Optional :class:`~repro.plant.faults.PlantFaultPlan`.  An empty
        (or absent) plan with no trip policy constructs no plant at all:
        the frame list, RNG draw sequence, and census stay byte-identical
        to a plain campaign.
    trip_policy:
        Optional :class:`~repro.plant.trip.ThermalTripPolicy` arming
        per-pod intake-overtemp trips with staged load shedding.
    """

    def __init__(
        self,
        n_hosts: int,
        config: Optional[ExperimentConfig] = None,
        tick_interval_s: float = 3 * CYCLE_PERIOD_S,
        record_series: bool = False,
        series_capacity: int = 512,
        telemetry: Optional["Telemetry"] = None,
        plant_faults: Optional[PlantFaultPlan] = None,
        trip_policy: Optional[ThermalTripPolicy] = None,
    ) -> None:
        if n_hosts <= 0:
            raise ValueError("need at least one host")
        if tick_interval_s <= 0 or tick_interval_s % CYCLE_PERIOD_S:
            raise ValueError("tick must be a positive multiple of the 600 s cycle")
        self.config = config if config is not None else ExperimentConfig()
        self.n_hosts = int(n_hosts)
        self.tick_interval_s = float(tick_interval_s)
        self.telemetry = telemetry
        #: Optional :class:`~repro.telemetry.progress.ProgressMeter`;
        #: assign one before driving to stream heartbeats per frame.
        self.progress: Optional["ProgressMeter"] = None
        self.clock = SimClock()
        self.sim = Simulator(self.clock)
        streams = RngStreams(self.config.seed)
        self.weather = WeatherGenerator(self.config.climate, streams, self.clock)
        self._rng = streams.stream("fleetscale.pool")
        self._start_s = self.clock.to_seconds(self.config.test_start)

        self._build_cohort()
        self._build_thermal()
        self._build_plant(plant_faults, trip_policy)
        self._build_series(record_series, series_capacity)
        self._install_frame()

        # Tick-constant hazard probabilities (exact over any step).
        dt_h = self.tick_interval_s / 3600.0
        self._p_latch = 1.0 - math.exp(-0.035 * dt_h)
        self._p_disk = 1.0 - math.exp(-dt_h / 500_000.0)
        self._p_wrong_dt = 1.0 - (1.0 - self.p_wrong_per_cycle) ** (
            self.tick_interval_s / CYCLE_PERIOD_S
        )
        # Transient-failure probability at the base rate; a frame
        # recomputes it only for hosts whose rate it scales.
        self._p_fail_base = 1.0 - np.exp(self.base_rate_per_hour * (-dt_h))

        # Census counters.
        self.transient_failures = 0
        self.storage_failures = 0
        self.sensor_latches = 0
        self.wrong_hashes = 0
        self.repairs = 0
        self.workload_runs = 0.0
        self.energy_kwh = 0.0
        self.monitor_rounds = 0
        self._tent_temp_min = math.inf
        self._tent_temp_max = -math.inf
        self._tent_temp_sum = 0.0
        self._ticks = 0

    # ------------------------------------------------------------------
    # Cohort layout
    # ------------------------------------------------------------------
    def _build_cohort(self) -> None:
        n = self.n_hosts
        plans = sorted(self.config.host_plans, key=lambda p: p.host_id)[:POD_SIZE]
        slot = np.arange(n) % len(plans)
        self.pod = np.arange(n) // POD_SIZE
        self.n_pods = int(self.pod[-1]) + 1

        vendor_ids = np.array([p.vendor_id for p in plans])[slot]
        self.vendor_ids = vendor_ids
        groups = np.array([p.group for p in plans])[slot]
        self.tent_mask = groups == "tent"
        self.basement_mask = groups == "basement"

        # Every host column is one value per pod slot, gathered by slot.
        specs = [vendor(p.vendor_id) for p in plans]

        def per_slot(values: List[Any], dtype: Any = np.float64) -> np.ndarray:
            return np.array(values, dtype=dtype)[slot]

        def per_vendor(attr: str) -> np.ndarray:
            return per_slot([float(getattr(spec, attr)) for spec in specs])

        self.idle_power_w = per_vendor("idle_power_w")
        self.active_power_w = per_vendor("active_power_w")
        self.compress_mb_per_s = per_vendor("compress_mb_per_s")
        self.defective = per_slot([spec.defective_series for spec in specs], np.bool_)
        self.ecc = per_slot([spec.ecc_memory for spec in specs], np.bool_)
        self.n_disks = per_slot(
            [spec.disk_layout.disk_count for spec in specs], np.int64
        )
        self.disk_tolerance = per_slot(
            [_DISK_TOLERANCE[p.vendor_id] for p in plans], np.int64
        )

        tree = KernelSourceTree()
        burst_s = (tree.total_bytes / 1e6) / self.compress_mb_per_s
        self.duty = burst_s / CYCLE_PERIOD_S
        self.avg_power_w = self.idle_power_w + self.duty * (
            self.active_power_w - self.idle_power_w
        )
        # Tick constants of the hazard pass: case air over intake at the
        # duty-averaged draw, and the idle die over case air.
        self.case_rise_c = per_vendor("case_rise_k_per_w") * self.avg_power_w
        self.cpu_idle_rise_c = per_vendor("cpu_theta_k_per_w") * per_vendor(
            "cpu_idle_power_w"
        )
        self.page_ops_per_cycle = tree.page_ops_per_cycle()
        ratio = self.config.memory_model.page_fault_ratio
        # P(>=1 flip) across one cycle's page ops, non-ECC banks only.
        self.p_wrong_per_cycle = 1.0 - (1.0 - ratio) ** self.page_ops_per_cycle

        model = self.config.transient_model
        self.frailty = self._rng.lognormal(
            mean=0.0, sigma=model.frailty_sigma, size=n
        )
        self.base_rate_per_hour = np.where(
            self.defective, model.defective_rate_per_hour, model.base_rate_per_hour
        ) * self.frailty

        # Dynamic state columns.
        self.state = np.where(groups == "spare", STAGED, RUNNING).astype(np.int8)
        self.uptime_s = np.zeros(n, dtype=np.float64)
        self.sensor_latched = np.zeros(n, dtype=np.bool_)
        self.disks_failed = np.zeros(n, dtype=np.int64)
        self.repair_at = np.full(n, np.inf, dtype=np.float64)

    def _build_thermal(self) -> None:
        first = self.weather.sample(self._start_s)
        self.tents = TwoNodeTentBank(self.n_pods, first.temp_c)
        cfg = self.config
        self.sim.register("fleetscale.modify", self._apply_modification)
        for index, plan in enumerate(cfg.modification_plans):
            when = self.clock.to_seconds(plan.date)
            if when <= self._start_s:
                self.tents.apply_modification(plan.modification)
                continue
            self.sim.schedule_at_key(
                when,
                "fleetscale.modify",
                args=(index,),
                label=f"fleetscale.mod.{plan.modification.name}",
            )
        self._sample = first
        self._basement_c = 21.0
        self.intake_temp_c = np.full(self.n_hosts, first.temp_c, dtype=np.float64)

    def _apply_modification(self, index: int) -> None:
        plan = self.config.modification_plans[index]
        self.tents.apply_modification(plan.modification)

    def _build_plant(
        self,
        plant_faults: Optional[PlantFaultPlan],
        trip_policy: Optional[ThermalTripPolicy],
    ) -> None:
        """The chaos plane -- only constructed when actually armed.

        ``self.plant is None`` is the global fast-path gate: no extra
        frame callbacks, no extra columns, no extra RNG draws, so an
        unarmed campaign is byte-identical to one built before the plant
        existed.
        """
        armed = bool(plant_faults) or trip_policy is not None
        self.plant: Optional[FleetPlant] = None
        self.plant_events: Optional[ev.EventRecorder] = None
        self.shed_reason: Optional[np.ndarray] = None
        self._n_shed = 0
        if not armed:
            return
        bus = ev.EventBus()
        self.plant_events = ev.EventRecorder()
        self.plant_events.attach(bus)
        self.plant = FleetPlant(
            plant_faults,
            trip_policy,
            self.n_pods,
            self._start_s,
            bus=bus,
            on_feed_drop=self._drop_feed,
            on_feed_restore=self._restore_feed,
        )
        self.shed_reason = np.zeros(self.n_hosts, dtype=np.int8)
        self._pod_tent = np.bincount(self.pod[self.tent_mask], minlength=self.n_pods)

    def _build_series(self, record_series: bool, series_capacity: int) -> None:
        """The observatory's recorder and per-pod cumulative tallies."""
        self.series = None
        self._pod_transient = None
        self._pod_storage = None
        self._pod_latches = None
        self._pod_wrong = None
        self._pod_energy = None
        self._pod_cycles = None
        self._pod_running = None
        self._pod_power = None
        self._pod_shed = (
            np.zeros(self.n_pods, dtype=np.float64)
            if (self.plant is not None or record_series)
            else None
        )
        if not record_series:
            return
        from repro.telemetry.timeseries import SeriesRecorder

        pods = self.n_pods
        self.series = SeriesRecorder(
            {
                "tent_air_c": pods,
                "basement_c": 1,
                "outside_temp_c": 1,
                "outside_rh_pct": 1,
                "hosts_running": pods,
                "failures_transient": pods,
                "failures_storage": pods,
                "sensor_latches": pods,
                "wrong_hashes": pods,
                "energy_kwh": pods,
                "workload_cycles": pods,
                "hosts_shed": pods,
            },
            capacity=series_capacity,
        )
        self._pod_transient = np.zeros(pods, dtype=np.float64)
        self._pod_storage = np.zeros(pods, dtype=np.float64)
        self._pod_latches = np.zeros(pods, dtype=np.float64)
        self._pod_wrong = np.zeros(pods, dtype=np.float64)
        self._pod_energy = np.zeros(pods, dtype=np.float64)
        self._pod_cycles = np.zeros(pods, dtype=np.float64)
        # Per-pod running census and running power draw, maintained
        # incrementally at the (rare) state transitions so the per-frame
        # recording path never rescans the whole host axis.
        running = self.state == RUNNING
        idx = np.flatnonzero(running)
        self._pod_running = np.bincount(
            self.pod[idx], minlength=pods
        ).astype(np.float64)
        self._pod_power = np.bincount(
            self.pod[idx], weights=self.avg_power_w[idx], minlength=pods
        )

    def _install_frame(self) -> None:
        dt = self.tick_interval_s
        if self.plant is not None:
            # Chaos-plane frame: plant faults advance after weather (so
            # strikes see this frame's sample) and trips evaluate right
            # after thermal (so they see this frame's intake).
            callbacks: List[Callable[[], None]] = [
                self._frame_weather,
                self._frame_plant,
                self._frame_thermal,
                self._frame_trip,
                self._frame_hazards,
                self._frame_workload,
            ]
            names = ["weather", "plant", "thermal", "trip", "hazards", "workload"]
        else:
            callbacks = [
                self._frame_weather,
                self._frame_thermal,
                self._frame_hazards,
                self._frame_workload,
            ]
            names = ["weather", "thermal", "hazards", "workload"]
        if self.series is not None:
            callbacks.append(self._frame_observe)
            names.append("observe")
        if self.telemetry is not None:
            tracer = self.telemetry.spans
            callbacks = [
                self._timed(tracer, f"fleetscale.{name}", frame)
                for name, frame in zip(names, callbacks)
            ]
        self.sim.every_key_group(
            dt,
            "fleetscale.frame",
            tuple(callbacks),
            start=self._start_s + dt,
            label="fleetscale frame",
        )
        self.sim.every_key_group(
            MONITOR_PERIOD_S,
            "fleetscale.monitor",
            (self._monitor_round,),
            start=self._start_s + MONITOR_PERIOD_S,
            label="fleetscale monitoring",
        )

    @staticmethod
    def _timed(
        tracer: Any, label: str, frame: Callable[[], None]
    ) -> Callable[[], None]:
        """Wrap one frame phase in a span (only built when telemetry is on)."""

        def timed_frame() -> None:
            started = perf_counter()
            try:
                frame()
            finally:
                tracer.record(label, perf_counter() - started)

        return timed_frame

    # ------------------------------------------------------------------
    # The per-tick system pass (fixed order, one heap entry)
    # ------------------------------------------------------------------
    def _frame_weather(self) -> None:
        self._sample = self.weather.sample(self.sim.now)

    def _frame_plant(self) -> None:
        """Advance the chaos plane (only installed when armed).

        Fault strikes/repairs land here; feed transitions power whole
        feed groups down or up (through ``_drop_feed``/``_restore_feed``)
        before thermal sees their load.
        """
        self.plant.advance(self.sim.now, self.tick_interval_s, self._sample.temp_c)

    def _frame_thermal(self) -> None:
        dt = self.tick_interval_s
        s = self._sample
        running = self.state == RUNNING
        tent_on = running & self.tent_mask
        pod_load = np.bincount(
            self.pod[tent_on],
            weights=self.avg_power_w[tent_on],
            minlength=self.n_pods,
        )
        ua_factor = None
        if self.plant is not None and self.plant.degraded:
            ua_factor = self.plant.ua_factor
        self.tents.step(
            dt, pod_load, s.temp_c, s.wind_ms, s.solar_wm2, ua_factor=ua_factor
        )

        # Basement CRAC: setpoint plus the same diurnal wiggle as the
        # object model's BasementMachineRoom.
        day_frac = (self.sim.now % 86_400.0) / 86_400.0
        basement_c = 21.0 + 0.4 * math.sin(2.0 * math.pi * day_frac)
        if self.plant is not None:
            basement_c = self.plant.basement_temp(
                self.sim.now, dt, self._basement_c, basement_c, s.temp_c
            )
        self._basement_c = basement_c
        self.intake_temp_c = np.where(
            self.tent_mask, self.tents.intake_temp_c[self.pod], basement_c
        )
        air = self.tents.air_temp_c
        self._tent_temp_min = min(self._tent_temp_min, float(air.min()))
        self._tent_temp_max = max(self._tent_temp_max, float(air.max()))
        self._tent_temp_sum += float(air.mean())
        self._ticks += 1

    def _frame_trip(self) -> None:
        """Protective-trip pass (only installed when the plant is armed)."""
        dt = self.tick_interval_s
        now = self.sim.now
        plant = self.plant
        shed, restore = plant.evaluate(now, dt, self.tents.intake_temp_c)
        if shed:
            self._shed_pods(shed, now)
        if restore:
            self._restore_pods(restore, now)
        if self._n_shed:
            plant.host_hours_shed += self._n_shed * dt / 3600.0

    # -- chaos-plane host transitions ----------------------------------
    def _apply_shed(self, idx: np.ndarray, reason: int) -> None:
        """Power the hosts at ``idx`` down (they draw nothing, run nothing)."""
        self.state[idx] = SHED
        self.shed_reason[idx] = reason
        self._n_shed += len(idx)
        self.plant.hosts_shed += len(idx)
        if self._pod_shed is not None:
            self._pod_shed += np.bincount(self.pod[idx], minlength=self.n_pods)
        if self._pod_running is not None:
            self._pod_running -= np.bincount(self.pod[idx], minlength=self.n_pods)
            self._pod_power -= np.bincount(
                self.pod[idx], weights=self.avg_power_w[idx], minlength=self.n_pods
            )

    def _apply_restore(self, idx: np.ndarray) -> None:
        self.state[idx] = RUNNING
        self.shed_reason[idx] = _SHED_NONE
        self._n_shed -= len(idx)
        self.plant.hosts_restored += len(idx)
        if self._pod_shed is not None:
            self._pod_shed -= np.bincount(self.pod[idx], minlength=self.n_pods)
        if self._pod_running is not None:
            self._pod_running += np.bincount(self.pod[idx], minlength=self.n_pods)
            self._pod_power += np.bincount(
                self.pod[idx], weights=self.avg_power_w[idx], minlength=self.n_pods
            )

    def _feed_slice(self, feed: int) -> slice:
        span = FEED_GROUP_PODS * POD_SIZE
        return slice(feed * span, min(self.n_hosts, (feed + 1) * span))

    def _drop_feed(self, feed: int) -> None:
        seg = self._feed_slice(feed)
        idx = np.flatnonzero(self.state[seg] == RUNNING) + seg.start
        if not len(idx):
            return
        self._apply_shed(idx, _SHED_FEED)
        now = self.sim.now
        pods, counts = np.unique(self.pod[idx], return_counts=True)
        for pod, count in zip(pods, counts):
            self.plant._publish(
                ev.LoadShed(
                    time=now, pod=int(pod), hosts=int(count), stage=0, reason="feed"
                )
            )

    def _restore_feed(self, feed: int) -> None:
        seg = self._feed_slice(feed)
        mask = (self.state[seg] == SHED) & (self.shed_reason[seg] == _SHED_FEED)
        idx = np.flatnonzero(mask) + seg.start
        if not len(idx):
            return
        self._apply_restore(idx)
        now = self.sim.now
        pods, counts = np.unique(self.pod[idx], return_counts=True)
        for pod, count in zip(pods, counts):
            self.plant._publish(
                ev.LoadRestored(
                    time=now, pod=int(pod), hosts=int(count), reason="feed"
                )
            )

    def _pod_rows(self, pods: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The host indices of ``pods`` as (pods x 19) rows, and the mask
        of real hosts (a partial last pod's row runs past the cohort)."""
        hosts = pods[:, None] * POD_SIZE + np.arange(POD_SIZE)
        real = hosts < self.n_hosts
        return np.minimum(hosts, self.n_hosts - 1), real

    def _trip_shed(self, hosts: np.ndarray, real: np.ndarray) -> np.ndarray:
        """Which of the rows' hosts are down for a trip."""
        return (
            real
            & (self.state[hosts] == SHED)
            & (self.shed_reason[hosts] == _SHED_TRIP)
        )

    def _shed_pods(self, shed: List[Tuple[int, int, float]], now: float) -> None:
        """Bring each pod's tent group down to its stage's shed fraction.

        One array pass over the pods' host rows.  Lowest host index
        first, so serial and ``--jobs N`` runs shed the same hosts; one
        ``LoadShed`` per pod that lost hosts, in the plant's order.
        """
        pods = np.array([pod for pod, _, _ in shed])
        hosts, real = self._pod_rows(pods)
        target = np.ceil(np.array([f for _, _, f in shed]) * self._pod_tent[pods])
        need = target - self._trip_shed(hosts, real).sum(axis=1)
        candidates = real & self.tent_mask[hosts] & (self.state[hosts] == RUNNING)
        take = candidates & (np.cumsum(candidates, axis=1) <= need[:, None])
        counts = take.sum(axis=1)
        if not counts.any():
            return
        self._apply_shed(hosts[take], _SHED_TRIP)
        for (pod, stage, _), count in zip(shed, counts.tolist()):
            if count:
                self.plant._publish(
                    ev.LoadShed(
                        time=now, pod=pod, hosts=count, stage=stage, reason="trip"
                    )
                )

    def _restore_pods(self, restore: List[int], now: float) -> None:
        """Power every trip-shed host of the ``restore`` pods back up."""
        hosts, real = self._pod_rows(np.array(restore))
        back = self._trip_shed(hosts, real)
        counts = back.sum(axis=1)
        if not counts.any():
            return
        self._apply_restore(hosts[back])
        for pod, count in zip(restore, counts.tolist()):
            if count:
                self.plant._publish(
                    ev.LoadRestored(time=now, pod=pod, hosts=count, reason="trip")
                )

    def _frame_hazards(self) -> None:
        dt = self.tick_interval_s
        now = self.sim.now
        model = self.config.transient_model
        running = self.state == RUNNING
        n = self.n_hosts

        case = self.intake_temp_c + self.case_rise_c
        cpu_idle = case + self.cpu_idle_rise_c

        # Sensor cold-latch: healthy chips below the threshold accrue
        # the same 0.035/h hazard as SensorChip.exposure_step.
        exposed = running & ~self.sensor_latched & (cpu_idle < -3.0)
        if exposed.any():
            latched = exposed & (self._rng.random(n) < self._p_latch)
            self.sensor_latched |= latched
            self.sensor_latches += int(latched.sum())
            if self._pod_latches is not None and latched.any():
                self._pod_latches += np.bincount(
                    self.pod[latched], minlength=self.n_pods
                )

        # Transient system failures: TransientFaultModel.rate_per_hour,
        # vectorized (frailty folded into base_rate_per_hour at build).
        # Only hot (and, with a cold multiplier, sub-zero) hosts leave
        # the base rate, so only they need a fresh exp.
        scaled = case > model.temp_reference_c
        cold = model.cold_multiplier != 1.0
        if cold:
            scaled = scaled | (self.intake_temp_c < 0.0)
        sub = np.flatnonzero(scaled)
        p_fail = self._p_fail_base
        if len(sub):
            rate = self.base_rate_per_hour[sub]
            case_sub = case[sub]
            hot = case_sub > model.temp_reference_c
            rate[hot] *= 2.0 ** (
                (case_sub[hot] - model.temp_reference_c) / model.temp_doubling_c
            )
            if cold:
                rate[self.intake_temp_c[sub] < 0.0] *= model.cold_multiplier
            p_fail = p_fail.copy()
            p_fail[sub] = 1.0 - np.exp(rate * (-dt / 3600.0))
        struck = running & (self._rng.random(n) < p_fail)

        # Disk attrition: 500k-hour MTBF per healthy drive, doubling
        # every 15 degC of case air above 45 degC (StorageSubsystem.tick).
        disk_hot = case > 45.0
        if disk_hot.any():
            disk_rate = np.full(n, 1.0 / 500_000.0)
            disk_rate[disk_hot] *= 2.0 ** ((case[disk_hot] - 45.0) / 15.0)
            p_disk = 1.0 - np.exp(disk_rate * (-dt / 3600.0))
        else:
            p_disk = self._p_disk
        healthy_disks = np.where(running, self.n_disks - self.disks_failed, 0)
        new_losses = self._rng.binomial(healthy_disks, p_disk)
        self.disks_failed += new_losses
        storage_dead = running & (self.disks_failed > self.disk_tolerance)

        self.transient_failures += int((struck & ~storage_dead).sum())
        self.storage_failures += int(storage_dead.sum())
        down = struck | storage_dead
        if down.any():
            if self._pod_running is not None:
                idx = np.flatnonzero(down)
                pods_down = self.pod[idx]
                is_storage = storage_dead[idx]
                self._pod_transient += np.bincount(
                    pods_down[~is_storage], minlength=self.n_pods
                )
                self._pod_storage += np.bincount(
                    pods_down[is_storage], minlength=self.n_pods
                )
                self._pod_running -= np.bincount(
                    pods_down, minlength=self.n_pods
                )
                self._pod_power -= np.bincount(
                    pods_down, weights=self.avg_power_w[idx], minlength=self.n_pods
                )
            if self.plant is not None:
                # Survival census: failures inside an active incident
                # (fault, trip, or shed in force) count as hosts lost.
                incident = self.plant.incident_pods(now)
                if incident.any():
                    self.plant.hosts_lost += int(
                        incident[self.pod[np.flatnonzero(down)]].sum()
                    )
            self.state[down] = FAILED
            self.repair_at[down] = now + self.config.inspection_delay_hours * 3600.0
            # A repair swaps the dead drives too.
            self.disks_failed[storage_dead] = 0

        due = (self.state == FAILED) & (self.repair_at <= now)
        if due.any():
            if self._pod_running is not None:
                idx = np.flatnonzero(due)
                pods_due = self.pod[idx]
                self._pod_running += np.bincount(
                    pods_due, minlength=self.n_pods
                )
                self._pod_power += np.bincount(
                    pods_due, weights=self.avg_power_w[idx], minlength=self.n_pods
                )
            self.state[due] = RUNNING
            self.repair_at[due] = np.inf
            self.repairs += int(due.sum())

    def _frame_workload(self) -> None:
        dt = self.tick_interval_s
        running = self.state == RUNNING
        n_run = int(running.sum())
        cycles = dt / CYCLE_PERIOD_S
        np.add(self.uptime_s, dt, out=self.uptime_s, where=running)
        self.workload_runs += n_run * cycles
        self.energy_kwh += float(self.avg_power_w[running].sum()) * dt / 3.6e6
        if self._pod_energy is not None:
            # The incremental gauges already hold this frame's running
            # census and power draw (hazards ran earlier in the frame).
            self._pod_energy += self._pod_power * (dt / 3.6e6)
            self._pod_cycles += self._pod_running * cycles

        flippable = running & ~self.ecc
        if flippable.any():
            wrong = flippable & (self._rng.random(self.n_hosts) < self._p_wrong_dt)
            self.wrong_hashes += int(wrong.sum())
            if self._pod_wrong is not None and wrong.any():
                self._pod_wrong += np.bincount(
                    self.pod[wrong], minlength=self.n_pods
                )
        if self.progress is not None:
            self.progress.tick(self.sim.now)

    def _frame_observe(self) -> None:
        """Fold the frame's signals into the observatory recorder.

        Runs last in the frame group (only installed with
        ``record_series=True``); it reads state, draws no randomness,
        and schedules nothing, so the census is identical either way.
        """
        s = self._sample
        self.series.record(
            self.sim.now,
            {
                "tent_air_c": self.tents.air_temp_c,
                "basement_c": self._basement_c,
                "outside_temp_c": s.temp_c,
                "outside_rh_pct": s.rh_percent,
                "hosts_running": self._pod_running,
                "failures_transient": self._pod_transient,
                "failures_storage": self._pod_storage,
                "sensor_latches": self._pod_latches,
                "wrong_hashes": self._pod_wrong,
                "energy_kwh": self._pod_energy,
                "workload_cycles": self._pod_cycles,
                "hosts_shed": self._pod_shed,
            },
        )

    def _monitor_round(self) -> None:
        self.monitor_rounds += 1
        self._reachable_last = int((self.state == RUNNING).sum())

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, days: float) -> Dict[str, Any]:
        """Advance the cohort ``days`` simulated days and return a census."""
        if days <= 0:
            raise ValueError("need a positive horizon")
        end = min(
            self._start_s + days * 86_400.0,
            self.clock.to_seconds(self.config.end_date),
        )
        try:
            self.sim.run_until(end)
        finally:
            # A raising campaign still owes its final: true heartbeat so
            # tail -f consumers see the run close.
            if self.progress is not None:
                self.progress.finish(self.sim.now)
        self._record_run_metrics()
        return self.summary()

    def _record_run_metrics(self) -> None:
        """End-of-run health gauges (mirrors ``Campaign._record_run_metrics``)."""
        if self.telemetry is None:
            return
        metrics = self.telemetry.metrics
        metrics.gauge("engine.events_fired").set(self.sim.events_fired)
        metrics.gauge("engine.heap_compactions").set(self.sim.heap_compactions)
        metrics.gauge("engine.pending").set(self.sim.pending_count)
        metrics.gauge("fleet.hosts").set(self.n_hosts)
        metrics.gauge("fleet.pods").set(self.n_pods)
        metrics.gauge("fleet.frames").set(self._ticks)
        metrics.gauge("fleet.transient_failures").set(self.transient_failures)
        metrics.gauge("fleet.storage_failures").set(self.storage_failures)
        metrics.gauge("fleet.sensor_latches").set(self.sensor_latches)
        metrics.gauge("fleet.wrong_hashes").set(self.wrong_hashes)

    def step_days(self, days: float) -> None:
        """Advance by ``days`` from wherever the clock stands (for benches)."""
        base = max(self.sim.now, self._start_s)
        self.sim.run_until(base + days * 86_400.0)

    def plant_census(self) -> Optional[Dict[str, Any]]:
        """The survival census (None when the chaos plane is unarmed)."""
        if self.plant is None:
            return None
        census = self.plant.census()
        census["hosts_shed_now"] = self._n_shed
        census["host_hours_shed"] = round(census["host_hours_shed"], 3)
        census["excursion_minutes"] = round(census["excursion_minutes"], 3)
        return census

    def summary(self) -> Dict[str, Any]:
        mean_tent = self._tent_temp_sum / self._ticks if self._ticks else math.nan
        census = {
            "hosts": self.n_hosts,
            "pods": self.n_pods,
            "simulated_s": max(0.0, self.sim.now - self._start_s),
            "ticks": self._ticks,
            "running": int((self.state == RUNNING).sum()),
            "transient_failures": self.transient_failures,
            "storage_failures": self.storage_failures,
            "sensor_latches": self.sensor_latches,
            "wrong_hashes": self.wrong_hashes,
            "repairs": self.repairs,
            "workload_runs": int(round(self.workload_runs)),
            "energy_kwh": round(self.energy_kwh, 3),
            "monitor_rounds": self.monitor_rounds,
            "tent_air_c": {
                "min": round(self._tent_temp_min, 3) if self._ticks else None,
                "mean": round(mean_tent, 3) if self._ticks else None,
                "max": round(self._tent_temp_max, 3) if self._ticks else None,
            },
            "engine": {
                "events_fired": self.sim.events_fired,
                "pending": self.sim.pending_count,
                "heap_compactions": self.sim.heap_compactions,
                "frames": self._ticks,
            },
        }
        if self.plant is not None:
            census["plant"] = self.plant_census()
        return census

    # ------------------------------------------------------------------
    # Observatory access
    # ------------------------------------------------------------------
    def pod_series(self, signal: str, pod: int):
        """One pod's recorded timeline (needs ``record_series=True``)."""
        if self.series is None:
            raise ValueError(
                "per-pod series were not recorded; build the campaign "
                "with record_series=True"
            )
        return self.series.series(signal, row=pod)

    def format_summary(self) -> str:
        s = self.summary()
        when = self.clock.to_datetime(self.sim.now)
        tent = s["tent_air_c"]
        lines = [
            f"fleet-scale cohort: {s['hosts']} hosts in {s['pods']} pods "
            f"(through {when:%Y-%m-%d %H:%M})",
            f"  running {s['running']}  repairs {s['repairs']}",
            f"  failures: {s['transient_failures']} transient, "
            f"{s['storage_failures']} storage, {s['sensor_latches']} sensor latches, "
            f"{s['wrong_hashes']} wrong hashes",
            f"  workload: {s['workload_runs']} archive cycles, "
            f"{s['energy_kwh']:.1f} kWh",
            f"  engine: {s['engine']['events_fired']} events over "
            f"{s['engine']['frames']} frames, "
            f"{s['engine']['heap_compactions']} heap compactions",
        ]
        if tent["mean"] is not None:
            lines.append(
                f"  tent air: {tent['min']:.1f} .. {tent['mean']:.1f} .. "
                f"{tent['max']:.1f} degC"
            )
        plant = s.get("plant")
        if plant is not None:
            lines.append(
                f"  plant: {plant['faults_injected']} faults "
                f"({plant['faults_repaired']} repaired), {plant['trips']} trips, "
                f"{plant['hosts_shed']} hosts shed "
                f"({plant['host_hours_shed']:.1f} host-hours), "
                f"{plant['excursion_minutes']:.0f} excursion minutes, "
                f"{plant['hosts_lost']} hosts lost"
            )
        return "\n".join(lines)
