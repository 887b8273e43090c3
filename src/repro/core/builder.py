"""Composable campaign assembly: the builder behind :class:`Experiment`.

The experiment driver used to hard-wire every subsystem in its
``__init__``.  :class:`CampaignBuilder` replaces that: it assembles a
:class:`Campaign` from the same parts in the same order, but lets callers

- drop default instruments (``without("webcam")`` builds a campaign with
  no terrace webcam and no webcam tick in the event queue),
- register extra instruments through the same ``attach(sim)/detach()``
  protocol the built-ins use (``with_instrument``), and
- subscribe observers to the campaign event bus before anything runs
  (``with_subscriber``).

Determinism contract: a default-built campaign replays the exact event
sequence the old hard-wired driver produced.  Named RNG streams make
construction order irrelevant to random draws, but the simulator breaks
time ties by scheduling order -- so the builder schedules the default
instruments in the historical order and appends extras strictly *after*
them.  Dropping a default removes its events wholesale without
renumbering anything that remains on the same tick.
"""

from __future__ import annotations

import datetime as _dt
import os
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.climate.generator import WeatherGenerator
from repro.climate.station import WeatherStation
from repro.control.controllers import (
    CONTROLLERS,
    Controller,
    controller_from_spec,
    resolve_controller,
)
from repro.control.plane import ControlPlane
from repro.core.config import ExperimentConfig
from repro.core.deployment import Fleet
from repro.core.legacy import upgrade_event_sources
from repro.core.protocol import OperatorPolicy
from repro.core.results import ExperimentResults, PrototypeResult, take_snapshot
from repro.hardware.faults import FaultLog
from repro.hardware.host import Host
from repro.hardware.vendors import VENDOR_A
from repro.monitoring.collector import MonitoringHost
from repro.monitoring.datalogger import LascarDataLogger
from repro.monitoring.health import HealthPolicy
from repro.monitoring.powermeter import TechnolineCostControl
from repro.monitoring.transport import LinkFaultPlan, TransferLedger
from repro.monitoring.webcam import TerraceWebcam
from repro.plant.controller import PlantController
from repro.plant.faults import PlantFaultPlan
from repro.plant.trip import ThermalTripPolicy
from repro.sim.clock import DAY, MINUTE, SimClock
from repro.sim.engine import Simulator
from repro.sim.events import EventBus, EventRecorder, SnapshotTaken
from repro.sim.rng import RngStreams
from repro.state.checkpoint import (
    CampaignCheckpoint,
    DeltaCheckpointWriter,
    read_checkpoint,
    write_checkpoint,
)
from repro.state.codec import EncodedRows, decode_value, encode_value
from repro.state.protocol import StateError
from repro.thermal.enclosure import PlasticBoxShelter

#: Instruments a default build schedules, in their historical order.
DEFAULT_INSTRUMENTS: Tuple[str, ...] = (
    "prototype",
    "lascar",
    "powermeter",
    "webcam",
    "collector",
    "weekly-review",
    "snapshot",
)


class Campaign:
    """One fully-wired campaign: subsystems, bus, and the run driver.

    Build instances through :class:`CampaignBuilder`; the constructor
    wires the subsystems exactly the way the original hard-coded
    ``Experiment.__init__`` did, plus the event bus the fault log and
    the run recorder subscribe to.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        disabled: frozenset,
        extra_instruments: Tuple[Tuple[str, Callable[["Campaign"], object]], ...] = (),
        subscribers: Tuple[Callable[[EventBus], None], ...] = (),
        telemetry=None,
        link_faults: Optional[LinkFaultPlan] = None,
        health_policy: Optional[HealthPolicy] = None,
        plant_faults: Optional[PlantFaultPlan] = None,
        trip_policy: Optional[ThermalTripPolicy] = None,
        controller=None,
    ) -> None:
        self.config = config
        self._disabled = disabled
        self.clock = SimClock()
        self.sim = Simulator(self.clock)
        #: Optional :class:`~repro.telemetry.hub.Telemetry`; ``None`` keeps
        #: every hook site on its zero-overhead fast path.
        self.telemetry = telemetry
        if telemetry is not None:
            self.sim.tracer = telemetry.spans
        self.streams = RngStreams(config.seed)
        self.weather = WeatherGenerator(config.climate, self.streams, self.clock)

        # The bus first, so every producer below can be handed it; the
        # fault log subscribes before any producer exists, keeping
        # census ordering identical to the old direct-record wiring.
        self.bus = EventBus()
        self.fault_log = FaultLog()
        self.fault_log.attach_bus(self.bus)
        self.recorder = EventRecorder()
        self.recorder.attach(self.bus)
        self._encoded_recorder = EncodedRows(encode_value)

        self.station = WeatherStation(self.weather, self.streams)
        self.fleet = Fleet(
            self.sim,
            config,
            self.streams,
            self.weather,
            self.fault_log,
            bus=self.bus,
        )
        self.policy = OperatorPolicy(
            self.sim, config, self.fleet, self.fault_log, bus=self.bus
        )
        self.transfers = TransferLedger()
        self.monitoring = MonitoringHost(
            self.sim,
            on_down_host=self.policy.on_down_host,
            on_unreachable=self.policy.on_unreachable,
            on_sensor_anomaly=self.policy.on_sensor_anomaly,
            transport=self.transfers,
            workload_ledger=self.fleet.ledger,
            bus=self.bus,
            telemetry=telemetry,
            link_faults=link_faults,
            health=health_policy,
        )
        self.policy.bind_monitoring(self.monitoring)
        self._link_faults = link_faults
        self._health_policy = health_policy

        self.lascar = LascarDataLogger(
            self.fleet.tent,
            self.streams,
            arrival_time=self.clock.to_seconds(config.lascar_arrival),
        )
        self.powermeter = TechnolineCostControl(self.streams)
        self.webcam = TerraceWebcam(self.weather, self.streams)

        # The control plane: one actuator bus plus the campaign's
        # controller (the paper's open-loop schedule by default).  Built
        # before the plant so the chaos plane can route its physical
        # actions through the same bus.
        self.control = ControlPlane(
            self.sim,
            self.fleet,
            resolve_controller(controller, config),
            self.clock,
            powermeter=self.powermeter,
            telemetry=telemetry,
        )

        # The plant chaos plane: only constructed when a fault plan or
        # trip policy is armed, so the unarmed campaign keeps its exact
        # historical bus wiring, key registry, and event sequence.
        self._plant_faults = plant_faults
        self._trip_policy = trip_policy
        plant_armed = bool(plant_faults) or trip_policy is not None
        self.plant: Optional[PlantController] = (
            PlantController(
                self.sim,
                self.fleet,
                plant_faults,
                trip_policy,
                bus=self.bus,
                actuators=self.control.actuators,
            )
            if plant_armed
            else None
        )
        self.control.plant = self.plant

        #: Extra instruments, name -> built instance (attach/detach protocol).
        self.instruments: Dict[str, object] = {}
        for name, factory in extra_instruments:
            self.instruments[name] = factory(self)
        for subscribe in subscribers:
            subscribe(self.bus)

        self.prototype_result: Optional[PrototypeResult] = None
        self._snapshot = None
        self._ran = False

        # Prototype-phase scratch state, attribute-held so the registered
        # prototype tick key can reach it.
        self._proto_host: Optional[Host] = None
        self._proto_shelter: Optional[PlasticBoxShelter] = None
        self._proto_cpu_temps: List[float] = []
        self._proto_start: Optional[float] = None

        # Checkpoint plumbing (configured per run()/resume() call).
        self._end: Optional[float] = None
        self._checkpoint_every: Optional[float] = None
        self._checkpoint_dir: Optional[str] = None
        self._on_checkpoint: Optional[Callable[[Optional[str], CampaignCheckpoint], None]] = None
        self._checkpoint_writer = DeltaCheckpointWriter()
        #: Paths of checkpoints flushed by the current run, oldest first.
        self.checkpoints_written: List[str] = []

        self._register_campaign_keys()

    def __repr__(self) -> str:
        state = "finished" if self._ran else "ready"
        return f"Campaign(seed={self.config.seed}, {state})"

    def enabled(self, name: str) -> bool:
        """Whether a default instrument survives this build."""
        return name not in self._disabled

    # ------------------------------------------------------------------
    # Public driver
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[_dt.datetime] = None,
        checkpoint_every: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        on_checkpoint: Optional[
            Callable[[Optional[str], CampaignCheckpoint], None]
        ] = None,
    ) -> ExperimentResults:
        """Run prototype + campaign and return the results.

        ``until`` truncates the campaign (tests use short horizons); the
        default runs to ``config.end_date``.  With ``checkpoint_every``
        (simulated seconds) set, the campaign pauses at each cadence
        point past the prototype weekend and flushes a
        :class:`~repro.state.checkpoint.CampaignCheckpoint` -- to
        ``checkpoint_dir`` (crash-safe atomic writes) and/or the
        ``on_checkpoint(path, checkpoint)`` callback.  Checkpointing
        never perturbs the simulation: a checkpointed run's results are
        byte-identical to an uninterrupted one.
        """
        end = self._claim(until)
        self._configure_checkpoints(checkpoint_every, checkpoint_dir, on_checkpoint)
        return self._traced_run(end, begin=True)

    def _claim(self, until: Optional[_dt.datetime]) -> float:
        """The run-once guard and horizon check of :meth:`run` and
        :meth:`begin`; returns the horizon in simulated seconds."""
        if self._ran:
            raise RuntimeError("a Campaign instance runs exactly once")
        self._ran = True
        end_date = until if until is not None else self.config.end_date
        end = self.clock.to_seconds(end_date)
        if end < self.clock.to_seconds(self.config.prototype_end):
            raise ValueError("campaign end precedes the prototype weekend")
        return end

    def _traced_run(self, end: float, begin: bool) -> ExperimentResults:
        """Drive to ``end`` (scheduling the campaign first when ``begin``)
        and build the results: one ``campaign.run`` span and the end-of-run
        gauges when the campaign is traced."""
        traced = self.telemetry is not None
        with self.telemetry.span("campaign.run") if traced else nullcontext():
            if begin:
                self._begin(end)
            self._run_to(end)
            results = self._build_results(end)
        if traced:
            self._record_run_metrics()
        return results

    def _configure_checkpoints(
        self,
        checkpoint_every: Optional[float],
        checkpoint_dir: Optional[str],
        on_checkpoint: Optional[Callable[[Optional[str], CampaignCheckpoint], None]],
    ) -> None:
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if checkpoint_every is None and (checkpoint_dir or on_checkpoint):
            raise ValueError("checkpoint_dir/on_checkpoint need checkpoint_every")
        self._checkpoint_every = checkpoint_every
        self._checkpoint_dir = checkpoint_dir
        self._on_checkpoint = on_checkpoint
        # Fresh chain per configured run: the first cut is always a full
        # schema-1 file, later cuts are deltas against their predecessor.
        self._checkpoint_writer = DeltaCheckpointWriter()

    def _begin(self, end: float) -> None:
        """Attach the station, run the prototype, schedule the campaign."""
        self._end = end
        self.station.attach(
            self.sim, start=self.clock.to_seconds(self.config.prototype_start)
        )
        if self.enabled("prototype"):
            self.prototype_result = self._run_prototype()
        self._schedule_campaign(end)

    # ------------------------------------------------------------------
    # Stepped driver (the ControlEnv facade): begin once, advance in
    # arbitrary increments, build results at the horizon.  run() is the
    # one-shot composition of the same pieces, so a stepped campaign
    # fires the exact event sequence a run() campaign does.
    # ------------------------------------------------------------------
    def begin(self, until: Optional[_dt.datetime] = None) -> float:
        """Schedule the full campaign without running it; returns the
        horizon in simulated seconds.  Drive with :meth:`advance_to`."""
        end = self._claim(until)
        self._configure_checkpoints(None, None, None)
        self._begin(end)
        return end

    def advance_to(self, when) -> float:
        """Advance to ``when`` (datetime or simulated seconds).

        ``run_until`` is segmentation-invariant, so any sequence of
        advances fires the same events as one call to the horizon.
        """
        target = (
            float(when)
            if isinstance(when, (int, float))
            else self.clock.to_seconds(when)
        )
        self.sim.run_until(target)
        return target

    def finish(self) -> ExperimentResults:
        """Results at the horizon recorded by :meth:`begin`/restore."""
        if self._end is None:
            raise RuntimeError("begin() the campaign before finish()")
        return self._build_results(self._end)

    def _run_to(self, end: float) -> None:
        """Advance to ``end``, pausing at checkpoint cadence points.

        ``run_until`` fires every event with ``time <= t`` and then sets
        the clock to ``t``, so splitting the horizon into segments fires
        the exact same event sequence as one call -- the pause is
        invisible to the simulation.
        """
        every = self._checkpoint_every
        if every is None:
            self.sim.run_until(end)
            return
        next_cut = self.sim.now + every
        while next_cut < end:
            self.sim.run_until(next_cut)
            self._emit_checkpoint()
            next_cut += every
        self.sim.run_until(end)

    def _emit_checkpoint(self) -> None:
        snapshot = self.checkpoint()
        path: Optional[str] = None
        if self._checkpoint_dir is not None:
            os.makedirs(self._checkpoint_dir, exist_ok=True)
            path = os.path.join(
                self._checkpoint_dir, f"checkpoint_{int(self.sim.now):012d}.json"
            )
            if self._checkpoint_writer.write(path, snapshot):
                self.checkpoints_written.append(path)
            else:
                path = None
        if self._on_checkpoint is not None:
            self._on_checkpoint(path, snapshot)

    def _record_run_metrics(self) -> None:
        """End-of-run engine/bus state, frozen into the metrics registry."""
        metrics = self.telemetry.metrics
        metrics.gauge("engine.events_fired").set(float(self.sim.events_fired))
        metrics.gauge("engine.events_cancelled").set(float(self.sim.events_cancelled))
        metrics.gauge("engine.pending_at_end").set(float(self.sim.pending_count))
        metrics.gauge("engine.heap_compactions").set(float(self.sim.heap_compactions))
        metrics.gauge("engine.sim_end_s").set(float(self.sim.now))
        for name, count in sorted(self.bus.counts.items()):
            metrics.counter(f"bus.events.{name}").inc(count)

    # ------------------------------------------------------------------
    # Phase 1: the plastic-box weekend
    # ------------------------------------------------------------------
    def _run_prototype(self) -> PrototypeResult:
        start = self.clock.to_seconds(self.config.prototype_start)
        end = self.clock.to_seconds(self.config.prototype_end)
        self._proto_shelter = PlasticBoxShelter("plastic-boxes", self.weather)
        self._proto_host = Host(
            host_id=0,
            spec=VENDOR_A,
            streams=self.streams,
            transient_model=self.config.transient_model,
            memory_fault_ratio=self.config.memory_model.page_fault_ratio,
            bus=self.bus,
        )
        self._proto_cpu_temps = []
        self._proto_start = start
        dt = self.config.tick_interval_s

        task = self.sim.every_key(dt, "prototype.tick", start=start, label="prototype-tick")
        self.sim.run_until(end)
        task.cancel()
        proto_host = self._proto_host
        survived = proto_host.running
        if proto_host.running:
            proto_host.retire(end)  # the borrowed boxes had to be returned

        times = self.station.times()
        temps = self.station.temperatures()[(start <= times) & (times <= end)].tolist()
        return PrototypeResult(
            start=start,
            end=end,
            outside_min_c=min(temps) if temps else float("nan"),
            outside_mean_c=sum(temps) / len(temps) if temps else float("nan"),
            cpu_min_c=min(self._proto_cpu_temps) if self._proto_cpu_temps else float("nan"),
            survived=survived,
        )

    def _prototype_tick(self) -> None:
        now = self.sim.now
        host, shelter = self._proto_host, self._proto_shelter
        if now == self._proto_start:
            host.install(shelter, now)
        shelter.set_it_load(host.average_power_w)
        shelter.advance(now)
        if host.running:
            host.tick(self.config.tick_interval_s, now, self.fault_log)
            # The tick itself can fail the host; only a survivor
            # contributes a CPU sample.
            if host.running:
                self._proto_cpu_temps.append(host.cpu_temp_c())

    # ------------------------------------------------------------------
    # Phase 2: the campaign
    # ------------------------------------------------------------------
    def _schedule_campaign(self, end: float) -> None:
        test_start = self.clock.to_seconds(self.config.test_start)

        self.sim.schedule_at_key(test_start, "campaign.erect_tent", label="erect-tent")
        self.fleet.start_ticking(test_start)
        if self.plant is not None:
            # Scheduled right behind the fleet tick: same period, later
            # tie-break, so each plant decision sees freshly advanced
            # enclosures and host states.
            self.plant.start_ticking(test_start)
        # Closed-loop controllers tick after fleet and plant for the
        # same freshness reason; the default paper operator declares no
        # interval, so this is a no-op on the historical campaign.
        self.control.start_ticking(test_start)

        for plan in self.config.host_plans:
            if plan.install_date is None:
                continue
            self.sim.schedule_at_key(
                self.clock.to_seconds(plan.install_date),
                "campaign.install",
                args=(plan.host_id, plan.group),
                label=f"install.host{plan.host_id:02d}",
            )

        # Controller wakes replace the old open-loop TentModificationPlan
        # replay: the paper operator schedules the identical events under
        # the identical key and labels.
        self.control.schedule_wakes(end)

        if self.enabled("lascar"):
            self.sim.schedule_at_key(
                test_start, "campaign.lascar_attach", label="lascar-attach"
            )
            trip = self.lascar.arrival_time + self.config.logger_download_interval_days * DAY
            while trip < end:
                self.lascar.schedule_download_trip(
                    trip, duration_s=self.config.logger_download_duration_min * MINUTE
                )
                trip += self.config.logger_download_interval_days * DAY

        if self.enabled("powermeter"):
            self.sim.schedule_at_key(
                test_start, "campaign.powermeter_attach", label="powermeter"
            )
        if self.enabled("webcam"):
            self.sim.schedule_at_key(test_start, "campaign.webcam_attach", label="webcam")
        if self.enabled("collector"):
            self.sim.schedule_at_key(
                test_start + 10 * MINUTE, "campaign.collector_attach", label="collector"
            )
        if self.enabled("weekly-review"):
            # Weekly lab review: triage new wrong hashes with S.M.A.R.T. runs.
            self.sim.every_key(
                7 * DAY, "campaign.weekly_review", start=test_start + 7 * DAY,
                label="weekly-review",
            )

        if self.enabled("snapshot"):
            snapshot_t = self.clock.to_seconds(self.config.snapshot_date)
            if snapshot_t <= end:
                self.sim.schedule_at_key(
                    snapshot_t,
                    "campaign.snapshot",
                    args=(snapshot_t,),
                    label="paper-snapshot",
                )

        # Extra instruments attach strictly after the defaults, so their
        # presence never renumbers the defaults' same-tick tie-breaks.
        for name in self.instruments:
            self.sim.schedule_at_key(
                test_start,
                "campaign.instrument_attach",
                args=(name,),
                label=f"instrument.{name}",
            )

    def _install(self, host_id: int, group: str) -> None:
        now = self.sim.now
        enclosure = self.fleet.enclosure_for_group(group)
        host = self.fleet.install(host_id, enclosure, now)
        if group == "tent":
            chain = [self.fleet.next_tent_switch()]
            self.powermeter.plug_in(host)
        else:
            chain = [self.fleet.next_basement_switch()]
        self.monitoring.register(host, chain)

    # ------------------------------------------------------------------
    # Engine registry: every campaign-level schedule goes through a
    # stable key, so a checkpointed queue re-materializes by name.
    # ------------------------------------------------------------------
    def _register_campaign_keys(self) -> None:
        sim = self.sim
        sim.register("prototype.tick", self._prototype_tick)
        sim.register("campaign.erect_tent", self.fleet.power_tent_switches)
        sim.register("campaign.install", self._install)
        self.control.register_keys(sim)
        sim.register("campaign.lascar_attach", self._attach_lascar)
        sim.register("campaign.powermeter_attach", self._attach_powermeter)
        sim.register("campaign.webcam_attach", self._attach_webcam)
        sim.register("campaign.collector_attach", self._attach_collector)
        sim.register("campaign.weekly_review", self.policy.weekly_review)
        sim.register("campaign.snapshot", self._freeze_snapshot)
        sim.register("campaign.instrument_attach", self._attach_instrument)
        if self.plant is not None:
            self.plant.register_keys(sim)

    def _attach_instrument(self, name: str) -> None:
        self.instruments[name].attach(self.sim)

    def _attach_lascar(self) -> None:
        self.lascar.attach(self.sim)

    def _attach_powermeter(self) -> None:
        self.powermeter.attach(self.sim)

    def _attach_webcam(self) -> None:
        self.webcam.attach(self.sim)

    def _attach_collector(self) -> None:
        self.monitoring.attach()

    def _freeze_snapshot(self, snapshot_t: float) -> None:
        census = take_snapshot(
            self.config, self.fleet.ledger, self.fault_log, snapshot_t
        )
        self._snapshot = census
        self.bus.publish(SnapshotTaken(time=snapshot_t, census=census))

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """One versioned state blob per stateful layer, keyed by name."""
        # The samplers draw their pending instrument error first, so the
        # RNG positions below already include it.
        self.station.flush()
        self.lascar.flush()
        state = {
            "engine": self.sim.state_dict(),
            "rng": self.streams.state_dict(),
            "station": self.station.state_dict(),
            "lascar": self.lascar.state_dict(),
            "powermeter": self.powermeter.state_dict(),
            "webcam": self.webcam.state_dict(),
            "monitoring": self.monitoring.state_dict(),
            "transfers": self.transfers.state_dict(),
            "fleet": self.fleet.state_dict(),
            "control": self.control.state_dict(),
            "policy": self.policy.state_dict(),
            "fault_log": self.fault_log.state_dict(),
            "bus_counts": dict(self.bus.counts),
            "recorder": self._encoded_recorder.encode(self.recorder.events),
            "telemetry": (
                self.telemetry.state_dict() if self.telemetry is not None else None
            ),
        }
        if self.plant is not None:
            state["plant"] = self.plant.state_dict()
        return state

    def checkpoint(self) -> CampaignCheckpoint:
        """Freeze the entire campaign into a :class:`CampaignCheckpoint`.

        The checkpoint is self-describing: it carries the encoded config
        and builder options, so :meth:`restore` rebuilds the campaign
        from the file alone.  Extra (user-supplied) instruments have no
        snapshot protocol, so a build that carries any refuses to
        checkpoint rather than silently dropping their state.  Bus
        *subscribers* are observational and do not survive a restore.
        """
        if self.instruments:
            raise StateError(
                "cannot checkpoint a campaign with extra instruments: "
                + ", ".join(sorted(self.instruments))
            )
        from repro.runner.records import config_digest

        snapshot = CampaignCheckpoint(
            config_digest=config_digest(self.config),
            sim_time=self.sim.now,
            seed=self.config.seed,
            components=self.state_dict(),
            meta={
                "disabled": sorted(self._disabled),
                "telemetry": self.telemetry is not None,
                "ran": self._ran,
                "end": self._end,
            },
        )
        snapshot.encode_meta("config", self.config)
        snapshot.encode_meta("link_faults", self._link_faults)
        snapshot.encode_meta("health_policy", self._health_policy)
        snapshot.encode_meta("plant_faults", self._plant_faults)
        snapshot.encode_meta("trip_policy", self._trip_policy)
        snapshot.encode_meta("controller", self.control.controller.spec)
        snapshot.encode_meta("prototype_result", self.prototype_result)
        snapshot.encode_meta("snapshot", self._snapshot)
        return snapshot

    @classmethod
    def restore(cls, checkpoint: CampaignCheckpoint) -> "Campaign":
        """Rebuild a mid-flight campaign from a checkpoint.

        Load order matters and is deliberate:

        1. construct the campaign (construction-time RNG draws and
           schedules are throwaway -- see steps 4 and 5);
        2. load the fleet first, so replacement switches exist before the
           monitoring topology is re-cabled by switch name;
        3. load every other component (plain data);
        4. load the engine, which *replaces* the queue wholesale --
           wiping whatever construction scheduled, quiet steps included
           -- and validates that every queued key is registered;
        5. load the RNG streams last, so construction draws cannot
           perturb the restored stream positions;
        6. rebind periodic-task handles to the restored queue, and queue
           the samplers' and archivers' quiet steps again.

        A checkpoint written while the samplers and archivers still
        queued events is upgraded first (:mod:`repro.core.legacy`).
        """
        from repro.runner.records import config_digest

        config = checkpoint.decode_meta("config")
        if config is None:
            raise StateError("checkpoint carries no config")
        if checkpoint.config_digest != config_digest(config):
            raise StateError("checkpoint config digest does not match its config")
        telemetry = None
        if checkpoint.meta.get("telemetry"):
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        controller_spec = checkpoint.decode_meta("controller")
        controller = (
            controller_from_spec(controller_spec, config)
            if controller_spec is not None
            else None
        )
        campaign = cls(
            config,
            disabled=frozenset(checkpoint.meta.get("disabled", ())),
            telemetry=telemetry,
            link_faults=checkpoint.decode_meta("link_faults"),
            health_policy=checkpoint.decode_meta("health_policy"),
            plant_faults=checkpoint.decode_meta("plant_faults"),
            trip_policy=checkpoint.decode_meta("trip_policy"),
            controller=controller,
        )
        campaign._ran = bool(checkpoint.meta.get("ran", True))
        end = checkpoint.meta.get("end")
        campaign._end = None if end is None else float(end)
        campaign.prototype_result = checkpoint.decode_meta("prototype_result")
        campaign._snapshot = checkpoint.decode_meta("snapshot")

        components = upgrade_event_sources(checkpoint.components)
        campaign.fleet.load_state_dict(components["fleet"])
        switches = {s.name: s for s in campaign.fleet._all_switches()}
        for host_id, names in components["monitoring"].get("topology", {}).items():
            host = campaign.fleet.host(int(host_id))
            try:
                chain = [switches[name] for name in names]
            except KeyError as exc:
                raise StateError(f"snapshot names unknown switch {exc}") from None
            campaign.monitoring.register(host, chain)
        campaign.monitoring.load_state_dict(components["monitoring"])
        for host_id in components["powermeter"].get("host_ids", ()):
            campaign.powermeter.plug_in(campaign.fleet.host(int(host_id)))
        campaign.station.load_state_dict(components["station"])
        campaign.lascar.load_state_dict(components["lascar"])
        campaign.powermeter.load_state_dict(components["powermeter"])
        campaign.webcam.load_state_dict(components["webcam"])
        campaign.transfers.load_state_dict(components["transfers"])
        campaign.policy.load_state_dict(components["policy"])
        campaign.fault_log.load_state_dict(components["fault_log"])
        if components.get("control") is not None:
            campaign.control.load_state_dict(components["control"])
        if campaign.plant is not None and components.get("plant") is not None:
            campaign.plant.load_state_dict(components["plant"])
        campaign.bus.counts.clear()
        campaign.bus.counts.update(
            {str(k): int(v) for k, v in components.get("bus_counts", {}).items()}
        )
        # In place: the bus subscription holds the list's bound append.
        campaign.recorder.events[:] = [
            decode_value(event) for event in components.get("recorder", ())
        ]
        if components.get("telemetry") is not None and campaign.telemetry is not None:
            campaign.telemetry.load_state_dict(components["telemetry"])

        # Instruments normally bind their keys in attach(); a restored
        # campaign is already past its attach events, so bind them all
        # up front -- the engine's load validates every queued key.
        campaign.powermeter.register_keys(campaign.sim)
        campaign.webcam.register_keys(campaign.sim)
        campaign.monitoring.register_keys(campaign.sim)
        campaign.fleet.register_keys(campaign.sim)

        campaign.sim.load_state_dict(components["engine"])
        campaign.streams.load_state_dict(components["rng"])

        campaign.station.rebind(campaign.sim)
        campaign.lascar.rebind(campaign.sim)
        campaign.powermeter.rebind(campaign.sim)
        campaign.webcam.rebind(campaign.sim)
        campaign.monitoring.rebind(campaign.sim)
        campaign.fleet.rebind(campaign.sim)
        campaign.control.rebind()
        if campaign.plant is not None:
            campaign.plant.rebind(campaign.sim)
        return campaign

    def continue_run(
        self,
        until: Optional[_dt.datetime] = None,
        checkpoint_every: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        on_checkpoint: Optional[
            Callable[[Optional[str], CampaignCheckpoint], None]
        ] = None,
    ) -> ExperimentResults:
        """Run a restored campaign from its cut point to the horizon.

        Defaults to the original run's horizon (recorded in the
        checkpoint); ``until`` overrides it.  Because ``run_until`` is
        segmentation-invariant, the continued run's results are
        byte-identical to an uninterrupted run at the same horizon.
        """
        end = self._end if until is None else self.clock.to_seconds(until)
        if end is None:
            raise StateError("checkpoint records no horizon; pass until=")
        if end < self.sim.now:
            raise ValueError("resume horizon precedes the checkpoint cut")
        self._end = end
        self._configure_checkpoints(checkpoint_every, checkpoint_dir, on_checkpoint)
        return self._traced_run(end, begin=False)

    @classmethod
    def resume(
        cls,
        path: str,
        until: Optional[_dt.datetime] = None,
        checkpoint_every: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        on_checkpoint: Optional[
            Callable[[Optional[str], CampaignCheckpoint], None]
        ] = None,
    ) -> Tuple["Campaign", ExperimentResults]:
        """Restore from a checkpoint file and run to completion.

        Returns ``(campaign, results)``.  Raises :class:`StateError`
        when the file is missing, corrupt, or schema-mismatched (the
        reader quarantines damaged files to a ``.corrupt`` sibling).
        """
        snapshot = read_checkpoint(path)
        if snapshot is None:
            raise StateError(f"no usable checkpoint at {path}")
        campaign = cls.restore(snapshot)
        results = campaign.continue_run(
            until=until,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            on_checkpoint=on_checkpoint,
        )
        return campaign, results

    # ------------------------------------------------------------------
    def _build_results(self, end: float) -> ExperimentResults:
        return ExperimentResults(
            config=self.config,
            clock=self.clock,
            fleet=self.fleet,
            station=self.station,
            lascar=self.lascar,
            powermeter=self.powermeter,
            monitoring=self.monitoring,
            policy=self.policy,
            webcam=self.webcam,
            fault_log=self.fault_log,
            prototype=self.prototype_result,
            snapshot=self._snapshot,
            end_time=end,
            bus=self.bus,
            recorder=self.recorder,
            telemetry=self.telemetry,
        )


class CampaignBuilder:
    """Fluent assembly of a :class:`Campaign`.

    Examples
    --------
    The default build is the paper's campaign::

        campaign = CampaignBuilder(ExperimentConfig(seed=7)).build()
        results = campaign.run()

    A stripped-down build with a custom instrument and a bus observer
    (``Co2Meter.attach(sim)`` registers its own keys on the engine and
    schedules its samples through them)::

        failures = []
        campaign = (
            CampaignBuilder(config)
            .without("webcam")
            .with_instrument("co2-meter", lambda c: Co2Meter(c.streams))
            .with_subscriber(lambda bus: bus.subscribe(HostFailed, failures.append))
            .build()
        )
    """

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config if config is not None else ExperimentConfig()
        self._disabled: set = set()
        self._extra: List[Tuple[str, Callable[[Campaign], object]]] = []
        self._subscribers: List[Callable[[EventBus], None]] = []
        self._telemetry = None
        self._link_faults: Optional[LinkFaultPlan] = None
        self._health_policy: Optional[HealthPolicy] = None
        self._plant_faults: Optional[PlantFaultPlan] = None
        self._trip_policy: Optional[ThermalTripPolicy] = None
        self._controller = None

    def without(self, name: str) -> "CampaignBuilder":
        """Drop one default instrument (see :data:`DEFAULT_INSTRUMENTS`)."""
        if name not in DEFAULT_INSTRUMENTS:
            raise ValueError(
                f"unknown default instrument {name!r}; "
                f"choose from {', '.join(DEFAULT_INSTRUMENTS)}"
            )
        self._disabled.add(name)
        return self

    def with_instrument(
        self, name: str, factory: Callable[[Campaign], object]
    ) -> "CampaignBuilder":
        """Register an extra instrument.

        ``factory(campaign)`` is called at build time and must return an
        object with the standard ``attach(sim)`` method, which schedules
        its work through keys it registers on ``sim``; the campaign
        fires the attach at test start, after every default.
        """
        if name in DEFAULT_INSTRUMENTS:
            raise ValueError(f"{name!r} is a default instrument; use without() to drop it")
        if any(existing == name for existing, _ in self._extra):
            raise ValueError(f"instrument {name!r} already registered")
        self._extra.append((name, factory))
        return self

    def with_subscriber(
        self, subscribe: Callable[[EventBus], None]
    ) -> "CampaignBuilder":
        """Register a bus observer; called with the bus at build time."""
        self._subscribers.append(subscribe)
        return self

    def with_telemetry(self, telemetry=None) -> "CampaignBuilder":
        """Opt the campaign into telemetry.

        ``telemetry`` is a :class:`~repro.telemetry.hub.Telemetry` to
        fill (pass one to share a registry across campaigns); omitted, a
        fresh one is created.  The built campaign wires it everywhere:
        the engine traces every event callback as ``engine.<label>``,
        the monitoring host times and tallies each collection round, and
        the run driver freezes end-of-run engine/bus state into gauges
        and counters.  The finished run exposes it as
        ``results.telemetry``.
        """
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self._telemetry = telemetry
        return self

    def with_link_faults(self, plan: LinkFaultPlan) -> "CampaignBuilder":
        """Inject a deterministic transport-fault plan into the rounds.

        ``plan`` is a :class:`~repro.monitoring.transport.LinkFaultPlan`
        (see also :meth:`LinkFaultPlan.parse` for the CLI spec syntax).
        Faults degrade *observation only*: the simulated hardware and
        its census are untouched.  Pair a storm with
        :meth:`with_health_policy` to keep false alarms away from the
        operator.
        """
        if not isinstance(plan, LinkFaultPlan):
            raise TypeError(f"expected a LinkFaultPlan, got {plan!r}")
        self._link_faults = plan
        return self

    def with_plant_faults(self, plan: PlantFaultPlan) -> "CampaignBuilder":
        """Arm the plant chaos plane with a deterministic fault plan.

        ``plan`` is a :class:`~repro.plant.faults.PlantFaultPlan` (see
        :meth:`PlantFaultPlan.parse` for the CLI spec syntax).  Unlike
        link faults, plant faults have *physical* consequences: degraded
        tent airflow, a drifting machine room, powered-down feed groups.
        An empty plan (and no trip policy) builds no plant at all and
        leaves the campaign byte-identical.
        """
        if not isinstance(plan, PlantFaultPlan):
            raise TypeError(f"expected a PlantFaultPlan, got {plan!r}")
        self._plant_faults = plan
        return self

    def with_trip_policy(self, policy: ThermalTripPolicy) -> "CampaignBuilder":
        """Arm protective thermal trips with staged load shedding.

        ``policy`` is a :class:`~repro.plant.trip.ThermalTripPolicy`
        (see :meth:`ThermalTripPolicy.parse`); it watches the tent
        intake and powers hosts down in stages on overtemperature.
        """
        if not isinstance(policy, ThermalTripPolicy):
            raise TypeError(f"expected a ThermalTripPolicy, got {policy!r}")
        self._trip_policy = policy
        return self

    def with_controller(self, controller) -> "CampaignBuilder":
        """Select the campaign's closed-loop controller.

        ``controller`` is a registry name (``"paper-operator"``,
        ``"thermostat"``, ``"model-free"`` -- see
        :data:`repro.control.CONTROLLERS`) or a
        :class:`~repro.control.Controller` instance.  The default is the
        paper operator: the historical R/I/B/F/D schedule, which leaves
        the pinned seed-7 digest byte-identical.
        """
        if controller is not None and not isinstance(controller, (str, Controller)):
            raise TypeError(
                f"expected a controller name or Controller, got {controller!r}"
            )
        if isinstance(controller, str) and controller not in CONTROLLERS:
            known = ", ".join(sorted(CONTROLLERS))
            raise ValueError(
                f"unknown controller {controller!r} (known: {known})"
            )
        self._controller = controller
        return self

    def with_health_policy(self, policy: HealthPolicy) -> "CampaignBuilder":
        """Set the collector's host-health policy.

        ``policy`` is a :class:`~repro.monitoring.health.HealthPolicy`;
        its ``confirm_rounds`` delays operator interventions until an
        outage repeats, and its ``retry`` grants in-round SSH retries.
        The default policy reproduces the historical collector.
        """
        if not isinstance(policy, HealthPolicy):
            raise TypeError(f"expected a HealthPolicy, got {policy!r}")
        self._health_policy = policy
        return self

    def build(self) -> Campaign:
        """Assemble the campaign (construction wires, nothing runs yet)."""
        return Campaign(
            self.config,
            disabled=frozenset(self._disabled),
            extra_instruments=tuple(self._extra),
            subscribers=tuple(self._subscribers),
            telemetry=self._telemetry,
            link_faults=self._link_faults,
            health_policy=self._health_policy,
            plant_faults=self._plant_faults,
            trip_policy=self._trip_policy,
            controller=self._controller,
        )
