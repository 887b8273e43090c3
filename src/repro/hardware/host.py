"""A complete host: the unit of the paper's fleet.

A :class:`Host` composes a vendor spec with a CPU, a memory bank, a sensor
chip, and a storage subsystem, draws intake air from whatever
:class:`~repro.thermal.enclosure.Enclosure` it currently sits in, and can

- suffer transient system failures (hazard scaled by its personal frailty
  and its case temperature),
- be reset, warm-rebooted, moved indoors, or retired by the operator --
  the actions Section 4.2.1 narrates for host #15 and the sensor-chip
  host,
- run a Memtest86+ session, which is what finally condemned host #15.

The host does not schedule itself; the fleet in :mod:`repro.core` ticks it
and the workload drives its duty cycle.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from repro.hardware.components import Cpu, MemoryBank, PowerSupply
from repro.hardware.faults import (
    FaultEvent,
    FaultKind,
    FaultLog,
    HazardMemo,
    TransientFaultModel,
    hazard_probability,
)
from repro.hardware.sensors import SensorChip, SensorState
from repro.hardware.storage import StorageSubsystem
from repro.hardware.vendors import VendorSpec
from repro.sim.events import EventBus, HostFailed, SensorLatched
from repro.sim.rng import RngStreams
from repro.state.codec import encode_rows
from repro.state.protocol import check_version, parsing
from repro.thermal.enclosure import Enclosure

_STATE_VERSION = 1

#: Water-ingress hazard per (mm/h of precipitation reaching the case) per
#: hour of powered operation.  A bare host in steady snowfall dies within
#: days; a sheltered one never sees the term.
WATER_INGRESS_RATE_PER_MM = 0.12

#: Stress multiplier a Memtest86+ run applies to the transient hazard.
#: Memtest hammers exactly the subsystem the defective series is weak in,
#: so the factor is large: a lemon that has already failed twice "causes
#: another system failure within a few hours", while a sound host sails
#: through (its base hazard is four orders of magnitude lower).
_MEMTEST_STRESS_FACTOR = 40.0


class HostState(enum.Enum):
    """Lifecycle of a host within the experiment."""

    STAGED = "staged"  # procured, not yet installed
    RUNNING = "running"
    BOOTING = "booting"  # power-cycled, BIOS + OS still coming up
    FAILED = "failed"  # down, awaiting operator attention
    RETIRED = "retired"  # withdrawn from the experiment
    SHED = "shed"  # deliberately powered down (load-shed / feed drop)


class Host:
    """One computer of the fleet.

    Parameters
    ----------
    host_id:
        The paper's server number (1-19).
    spec:
        Vendor specification.
    streams:
        Parent RNG family; the host spawns its own child family so fleets
        of any size stay draw-for-draw reproducible.
    transient_model:
        Shared hazard parameters for transient system failures.
    memory_fault_ratio:
        Per-page-op bit-flip probability for the memory bank.
    bus:
        Optional campaign event bus.  When set, failures and sensor
        latch-ups are *published* (:class:`~repro.sim.events.HostFailed`,
        :class:`~repro.sim.events.SensorLatched`) and the subscribed
        fault log records them; without a bus the host falls back to
        recording into the ``fault_log`` passed to :meth:`tick`.
    """

    def __init__(
        self,
        host_id: int,
        spec: VendorSpec,
        streams: RngStreams,
        transient_model: Optional[TransientFaultModel] = None,
        memory_fault_ratio: float = 1.0 / 570e6,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.host_id = host_id
        self.hostname = f"host{host_id:02d}"
        self.spec = spec
        #: Duty-cycle average draw while running; the spec is frozen, so
        #: computed once instead of on every fleet tick.
        self.duty_power_w = spec.average_power_w()
        self._streams = streams.spawn(f"host.{host_id:02d}")
        self.transient_model = (
            transient_model if transient_model is not None else TransientFaultModel()
        )
        self.frailty = self.transient_model.draw_frailty(self._streams.stream("frailty"))

        self.cpu = Cpu(spec)
        self.memory = MemoryBank(
            spec, self._streams.uniforms("memory"), memory_fault_ratio
        )
        self.psu = PowerSupply()
        self.sensor = SensorChip(self._streams.stream("sensor"))
        # The disk, transient and page-op coins are scalar uniforms, served
        # in blocks; the sensor stream also draws read noise, so it stays raw.
        self.storage = StorageSubsystem(
            self.hostname, spec, self._streams.uniforms("storage")
        )
        self._fault_rng = self._streams.uniforms("transient")
        self._transient_hazard = HazardMemo()
        self.bus = bus

        self.state = HostState.STAGED
        self.enclosure: Optional[Enclosure] = None
        self.installed_at: Optional[float] = None
        self.retired_at: Optional[float] = None
        self.uptime_s = 0.0
        self.reset_count = 0
        #: ``(time, note)`` operator log, mirroring the paper's narrative.
        self.event_log: List[Tuple[float, str]] = []

    def __repr__(self) -> str:
        where = self.enclosure.name if self.enclosure is not None else "nowhere"
        return (
            f"Host(#{self.host_id:02d} vendor {self.spec.vendor_id}, "
            f"{self.state.value} in {where})"
        )

    # ------------------------------------------------------------------
    # Placement and lifecycle
    # ------------------------------------------------------------------
    def install(self, enclosure: Enclosure, time: float) -> None:
        """Place the host in an enclosure and power it on."""
        if self.state is HostState.RETIRED:
            raise RuntimeError(f"{self.hostname} is retired")
        self.enclosure = enclosure
        if self.installed_at is None:
            self.installed_at = time
        self.state = HostState.RUNNING
        self.storage.record_power_cycle()
        self.event_log.append((time, f"installed in {enclosure.name}"))

    def move_to(self, enclosure: Enclosure, time: float) -> None:
        """Relocate a host (e.g. taken indoors after repeated failures)."""
        if self.enclosure is None:
            raise RuntimeError(f"{self.hostname} was never installed")
        self.event_log.append(
            (time, f"moved from {self.enclosure.name} to {enclosure.name}")
        )
        self.enclosure = enclosure

    def reset(self, time: float) -> None:
        """Operator reset after a failure; the host resumes immediately.

        The zero-downtime convenience form of :meth:`begin_boot` +
        :meth:`finish_boot`, used where boot latency is irrelevant
        (bench work, tests).  Only valid from the FAILED state.
        """
        if self.state is not HostState.FAILED:
            raise RuntimeError(
                f"{self.hostname} is not failed (state={self.state.value})"
            )
        self.begin_boot(time)
        self.finish_boot(time)

    def begin_boot(self, time: float) -> None:
        """Start a power cycle: the host goes dark while BIOS/OS come up.

        Valid from FAILED (an operator reset) or RUNNING (a deliberate
        restart).  The host answers nothing until :meth:`finish_boot`.
        """
        if self.state not in (HostState.FAILED, HostState.RUNNING):
            raise RuntimeError(
                f"{self.hostname} cannot boot from state {self.state.value}"
            )
        was_failed = self.state is HostState.FAILED
        self.state = HostState.BOOTING
        self.cpu.busy = False
        if was_failed:
            self.reset_count += 1
            self.event_log.append((time, "reset after failure (booting)"))
        else:
            self.event_log.append((time, "restart (booting)"))

    def finish_boot(self, time: float) -> None:
        """Boot completes; the host is back in service."""
        if self.state is not HostState.BOOTING:
            raise RuntimeError(
                f"{self.hostname} is not booting (state={self.state.value})"
            )
        self.state = HostState.RUNNING
        self.storage.record_power_cycle()
        self.event_log.append((time, "boot complete"))

    def warm_reboot(self, time: float) -> None:
        """Warm reboot: recovers the sensor chip, keeps everything running."""
        self.sensor.warm_reboot()
        self.storage.record_power_cycle()
        self.event_log.append((time, "warm reboot (sensor chip recovered)"))

    def power_down(self, time: float, reason: str = "load shed") -> None:
        """Deliberately power off a healthy host (trip shed, feed drop).

        Unlike a failure, a shed host is *intact*: the plant layer
        powers it back up with :meth:`power_up` once conditions allow,
        and the operator playbook leaves it alone (it is not FAILED).
        Only valid from RUNNING.
        """
        if self.state is not HostState.RUNNING:
            raise RuntimeError(
                f"{self.hostname} cannot be shed from state {self.state.value}"
            )
        self.state = HostState.SHED
        self.cpu.busy = False
        self.event_log.append((time, f"powered down ({reason})"))

    def power_up(self, time: float) -> None:
        """Power a shed host back up after cool-down / feed restoration."""
        if self.state is not HostState.SHED:
            raise RuntimeError(
                f"{self.hostname} is not shed (state={self.state.value})"
            )
        self.state = HostState.RUNNING
        self.storage.record_power_cycle()
        self.event_log.append((time, "powered up after shed"))

    def retire(self, time: float) -> None:
        """Withdraw the host from the experiment permanently."""
        self.state = HostState.RETIRED
        self.retired_at = time
        self.cpu.busy = False
        self.event_log.append((time, "retired"))

    @property
    def running(self) -> bool:
        """Whether the host is powered and working."""
        return self.state is HostState.RUNNING

    # ------------------------------------------------------------------
    # Thermal and power
    # ------------------------------------------------------------------
    @property
    def power_w(self) -> float:
        """Instantaneous wall draw (0 when down)."""
        if self.state is not HostState.RUNNING:
            return 0.0
        return self.spec.active_power_w if self.cpu.busy else self.spec.idle_power_w

    @property
    def average_power_w(self) -> float:
        """Duty-cycle average draw used for enclosure heat budgets."""
        if not self.running:
            return 0.0
        return self.duty_power_w

    def intake_temp_c(self) -> float:
        """Current intake air temperature from the enclosure."""
        if self.enclosure is None:
            raise RuntimeError(f"{self.hostname} has no enclosure")
        return self.enclosure.intake_temp_c

    def case_temp_c(self) -> float:
        """Case-interior air temperature."""
        return self.spec.case_temp_c(self.intake_temp_c(), self.power_w)

    def cpu_temp_c(self) -> float:
        """True die temperature (what a healthy sensor would report).

        The collector reads this on every poll, so it is computed here in
        one frame, with the expression of :meth:`tick` and the value of
        ``spec.cpu_temp_c(self.intake_temp_c(), self.power_w, cpu_power)``.
        """
        enclosure = self.enclosure
        if enclosure is None:
            raise RuntimeError(f"{self.hostname} has no enclosure")
        spec = self.spec
        if self.cpu.busy:
            host_power, cpu_power = spec.active_power_w, spec.cpu_active_power_w
        else:
            host_power, cpu_power = spec.idle_power_w, spec.cpu_idle_power_w
        if self.state is not HostState.RUNNING:
            host_power = 0.0
        case = enclosure.intake_temp_c + spec.case_rise_k_per_w * host_power
        return case + spec.cpu_theta_k_per_w * cpu_power

    def sensor_poll(self, time: float) -> Optional[float]:
        """Poll the lm-sensors chip (the 20-minute collection round); ``None`` off the bus."""
        return self.sensor.read(self.cpu_temp_c(), time)

    # ------------------------------------------------------------------
    # Time advance
    # ------------------------------------------------------------------
    def tick(self, dt_s: float, time: float, fault_log: Optional[FaultLog] = None) -> None:
        """Advance ``dt_s`` seconds of operation.

        Accrues uptime, reads the enclosure's intake air once, derives
        case and die temperatures from the current draw, then runs the
        stochastic tail (:meth:`tick_from_columns`): sensor exposure,
        disk ticks, and the water and transient-failure hazards.  A
        strike powers the host down and logs the event.
        """
        if self.state is not HostState.RUNNING:
            return
        self.uptime_s += dt_s
        enclosure = self.enclosure
        if enclosure is None:
            raise RuntimeError(f"{self.hostname} has no enclosure")
        intake = enclosure.intake_temp_c
        spec = self.spec
        if self.cpu.busy:
            host_power, cpu_power = spec.active_power_w, spec.cpu_active_power_w
        else:
            host_power, cpu_power = spec.idle_power_w, spec.cpu_idle_power_w
        # Same expressions as VendorSpec.case_temp_c / cpu_temp_c, so the
        # temperatures are bit-identical to the property reads.
        case = intake + spec.case_rise_k_per_w * host_power
        self.tick_from_columns(
            dt_s,
            time,
            fault_log,
            case,
            intake,
            case + spec.cpu_theta_k_per_w * cpu_power,
            # Water reaching a powered chassis (unsheltered or leaky
            # enclosure) melts, pools, and eventually shorts something.
            getattr(enclosure, "intake_precip_mm_h", 0.0),
        )

    def tick_from_columns(
        self,
        dt_s: float,
        time: float,
        fault_log: Optional[FaultLog],
        case: float,
        intake: float,
        cpu_temp: float,
        precip: float,
    ) -> None:
        """The stochastic tail of :meth:`tick`, with the thermal reads done.

        :meth:`tick` is the only caller: it accrues uptime and computes
        the intake, case, and die temperatures and the intake
        precipitation, then hands them here.  This is the single copy of
        the per-tick draw sequence, in this order:

        1. sensor latch (only while the chip is OK and the die is below
           its latch threshold, the one case in which it draws);
        2. every healthy drive's coin (:meth:`StorageSubsystem.tick`);
        3. the water-ingress coin, while precipitation reaches the case;
        4. the transient-failure coin, at
           :meth:`TransientFaultModel.rate_per_hour`.

        The disk coins come from the host's served ``storage`` stream and
        the water and transient coins from its served ``transient``
        stream.  The transient probability comes from a
        :class:`HazardMemo`, which answers again without arithmetic while
        the rate stays put.  The name is kept from the retired array-backed
        fleet tick that also called it.
        """
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        sensor = self.sensor
        if sensor.state is SensorState.OK and cpu_temp < sensor.latch_threshold_c:
            sensor.exposure_step(cpu_temp, dt_s, time)
            if sensor.state is SensorState.ERRATIC and self.bus is not None:
                self.bus.publish(SensorLatched(time=time, host_id=self.host_id))
        storage = self.storage
        if storage.tick(dt_s, case, time) and not storage.operational:
            self._fail(time, fault_log, FaultKind.DISK, "storage array lost")
            return
        coin = self._fault_rng
        if precip > 0.0:
            rate = WATER_INGRESS_RATE_PER_MM * precip
            if coin.random() < hazard_probability(rate, dt_s):
                self._fail(
                    time, fault_log, FaultKind.WATER_INGRESS,
                    f"{precip:.1f} mm/h reaching the case",
                )
                return
        rate = self.transient_model.rate_per_hour(
            self.spec.defective_series, self.frailty, case, intake
        )
        if coin.random() < self._transient_hazard.probability(rate, dt_s):
            self._fail(time, fault_log, FaultKind.TRANSIENT_SYSTEM, "")

    def _fail(self, time: float, fault_log: Optional[FaultLog], kind: FaultKind, detail: str) -> None:
        self.state = HostState.FAILED
        self.cpu.busy = False
        self.event_log.append((time, f"FAILED: {kind.value} {detail}".rstrip()))
        if self.bus is not None:
            # The subscribed fault log (and anyone else listening) hears it.
            self.bus.publish(
                HostFailed(time=time, host_id=self.host_id, kind=kind, detail=detail)
            )
        elif fault_log is not None:
            fault_log.record(FaultEvent(time=time, kind=kind, host_id=self.host_id, detail=detail))

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Lifecycle, frailty, operator log, and every component's state.

        The enclosure reference is stored by name; the fleet resolves it
        against the reconstructed enclosures on restore.  RNG positions
        are *not* here -- the host's streams are children of the campaign
        family and ride in its snapshot.
        """
        return {
            "version": _STATE_VERSION,
            "state": self.state.value,
            "enclosure": self.enclosure.name if self.enclosure is not None else None,
            "installed_at": self.installed_at,
            "retired_at": self.retired_at,
            "uptime_s": self.uptime_s,
            "reset_count": self.reset_count,
            "frailty": self.frailty,
            "event_log": encode_rows(self.event_log, list),
            "cpu_busy": self.cpu.busy,
            "memory": self.memory.state_dict(),
            "sensor": self.sensor.state_dict(),
            "storage": self.storage.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore everything except the enclosure link (fleet-resolved); a
        malformed blob raises :class:`StateError` and changes nothing."""
        with parsing(self.hostname):
            check_version(self.hostname, state, _STATE_VERSION)
            host_state = HostState(state["state"])
            installed_at = state["installed_at"]
            installed_at = None if installed_at is None else float(installed_at)
            retired_at = state["retired_at"]
            retired_at = None if retired_at is None else float(retired_at)
            uptime_s = float(state["uptime_s"])
            reset_count = int(state["reset_count"])
            frailty = float(state["frailty"])
            event_log = [(float(t), str(note)) for t, note in state["event_log"]]
            cpu_busy = bool(state["cpu_busy"])
            loads = [
                self.memory.parse_state(state["memory"]),
                self.sensor.parse_state(state["sensor"]),
                self.storage.parse_state(state["storage"]),
            ]
        self.state = host_state
        self.installed_at = installed_at
        self.retired_at = retired_at
        self.uptime_s = uptime_s
        self.reset_count = reset_count
        self.frailty = frailty
        self.event_log = event_log
        self.cpu.busy = cpu_busy
        for load in loads:
            load()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def run_memtest(self, duration_hours: float, time: float) -> bool:
        """Run Memtest86+ for ``duration_hours``; True if the host survives.

        The paper: "A standard Memtest86+ run caused another system failure
        within a few hours" on host #15.  Memtest stresses the memory
        subsystem, multiplying the transient hazard; lemons rarely survive.
        """
        if duration_hours < 0:
            raise ValueError("duration cannot be negative")
        rate = self.transient_model.rate_per_hour(
            self.spec.defective_series, self.frailty, case_temp_c=45.0, intake_temp_c=21.0
        )
        p_fail = hazard_probability(rate * _MEMTEST_STRESS_FACTOR, duration_hours * 3600.0)
        survived = self._fault_rng.random() >= p_fail
        verdict = "passed" if survived else "failed"
        self.event_log.append((time, f"memtest {verdict} ({duration_hours:.0f}h)"))
        return survived
