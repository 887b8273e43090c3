"""The fleet: hosts, enclosures, switches, and the tick loop.

Deployment follows Section 3.4: hosts are "installed pairwise so that
identical units are placed into the control group in the basement and the
test group in the tent".  The :class:`Fleet` owns

- the three enclosures (tent, basement, and the indoor office where a
  twice-failed host ends up),
- the network gear: two defective 8-port switches in the tent, a healthy
  one in the basement, and the defective spare that never got deployed,
- every :class:`~repro.hardware.host.Host`, its archiver process, and the
  shared workload ledger,

and advances all of it on a fixed tick.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.climate.generator import WeatherGenerator
from repro.hardware.faults import FaultEvent, FaultKind, FaultLog
from repro.hardware.host import Host, HostState
from repro.hardware.switch import NetworkSwitch, SwitchState
from repro.hardware.vendors import vendor
from repro.core.config import ExperimentConfig, HostPlan
from repro.sim.engine import PeriodicTask, Simulator
from repro.state.protocol import StateError, check_version
from repro.sim.events import EventBus, HostInstalled, SwitchDied, TentModified
from repro.sim.rng import RngStreams
from repro.thermal.enclosure import BasementMachineRoom, Enclosure
from repro.thermal.tent import Tent
from repro.thermal.twonode import TwoNodeTent
from repro.workload.archiver import ArchiverProcess, WorkloadLedger
from repro.workload.kernel_tree import KernelSourceTree

_STATE_VERSION = 1


def paper_install_plan(config: Optional[ExperimentConfig] = None) -> List[HostPlan]:
    """The install schedule as a sorted list (Fig. 2's underlying data)."""
    config = config if config is not None else ExperimentConfig()
    dated = [p for p in config.host_plans if p.install_date is not None]
    return sorted(dated, key=lambda p: (p.install_date, p.host_id))


class Fleet:
    """Everything physical in the campaign, plus its time-advance loop.

    Parameters
    ----------
    sim / config / streams / weather / fault_log:
        Shared experiment plumbing.
    bus:
        Optional campaign event bus.  When given, the fleet *publishes*
        installs, switch deaths, and tent modifications (and hands the
        bus to every host it builds); the subscribed fault log keeps the
        census.  Without a bus everything records directly, as before.
    """

    def __init__(
        self,
        sim: Simulator,
        config: ExperimentConfig,
        streams: RngStreams,
        weather: WeatherGenerator,
        fault_log: FaultLog,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.weather = weather
        self.fault_log = fault_log
        self.bus = bus

        # Enclosures ----------------------------------------------------
        if config.tent_model == "two-node":
            self.tent = TwoNodeTent("tent", weather)
        else:
            self.tent = Tent("tent", weather)
        self.basement = BasementMachineRoom("basement", weather)
        self.indoors = BasementMachineRoom("indoor office", weather, setpoint_c=21.5)
        self.enclosures: List[Enclosure] = [self.tent, self.basement, self.indoors]

        # Network gear --------------------------------------------------
        self.tent_switches: List[NetworkSwitch] = [
            NetworkSwitch(
                "tent-sw1",
                streams.uniforms("switch.tent1"),
                inherent_defect=True,
                defect_mean_life_hours=config.switch_defect_mean_life_hours,
            ),
            NetworkSwitch(
                "tent-sw2",
                streams.uniforms("switch.tent2"),
                inherent_defect=True,
                defect_mean_life_hours=config.switch_defect_mean_life_hours,
            ),
        ]
        self.spare_switch = NetworkSwitch(
            "spare-sw",
            streams.uniforms("switch.spare"),
            inherent_defect=True,
            defect_mean_life_hours=config.switch_defect_mean_life_hours,
        )
        # The basement's nine hosts hang off healthy department switches
        # (the paper's defective pair served only the tent).
        self.basement_switches: List[NetworkSwitch] = [
            NetworkSwitch(
                "basement-sw1", streams.uniforms("switch.basement1"), inherent_defect=False
            ),
            NetworkSwitch(
                "basement-sw2", streams.uniforms("switch.basement2"), inherent_defect=False
            ),
        ]
        #: Switches currently serving the tent (replacements swap in here).
        self.active_tent_switches: List[NetworkSwitch] = list(self.tent_switches)
        self._replacement_counter = 0
        self._replacement_switches: List[NetworkSwitch] = []
        self._switch_rng = streams.uniforms("switch.replacements")
        self._powered_switches: List[NetworkSwitch] = list(self.basement_switches)
        self._basement_switch_rr = 0
        self._switch_failures_logged: set = set()

        # Hosts ---------------------------------------------------------
        self.hosts: Dict[int, Host] = {}
        for plan in config.host_plans:
            self.hosts[plan.host_id] = Host(
                host_id=plan.host_id,
                spec=vendor(plan.vendor_id),
                streams=streams,
                transient_model=config.transient_model,
                memory_fault_ratio=config.memory_model.page_fault_ratio,
                bus=bus,
            )

        #: Tick order: by server number.
        self._tick_order: List[Host] = [self.hosts[i] for i in sorted(self.hosts)]

        # Workload ------------------------------------------------------
        self.tree = KernelSourceTree()
        self.ledger = WorkloadLedger(bus=bus)
        self.archivers: Dict[int, ArchiverProcess] = {}
        self._tick_handle: Optional[PeriodicTask] = None
        self._restore_task_id: Optional[int] = None
        self._tent_switch_rr = 0

    def __repr__(self) -> str:
        running = sum(1 for h in self.hosts.values() if h.running)
        return f"Fleet({running}/{len(self.hosts)} hosts running)"

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def host(self, host_id: int) -> Host:
        """Fetch one host by id."""
        try:
            return self.hosts[host_id]
        except KeyError:
            raise KeyError(f"no host {host_id} in the fleet") from None

    def hosts_in_group(self, group: str) -> List[Host]:
        """Hosts planned into ``group`` ("tent", "basement", "spare")."""
        return [self.hosts[p.host_id] for p in self.config.plans_by_group(group)]

    def host_census(self) -> "tuple[int, int]":
        """``(running, shed)`` counts across the fleet."""
        running = 0
        shed = 0
        for host in self.hosts.values():
            if host.state is HostState.RUNNING:
                running += 1
            elif host.state is HostState.SHED:
                shed += 1
        return running, shed

    def enclosure_for_group(self, group: str) -> Enclosure:
        """The enclosure a group's hosts are installed into."""
        if group == "tent":
            return self.tent
        if group == "basement":
            return self.basement
        raise ValueError(f"group {group!r} has no fixed enclosure")

    def next_tent_switch(self) -> NetworkSwitch:
        """Least-loaded operational tent switch (replacements included).

        If every active tent switch is dead (both defective originals can
        die between collection rounds), a replacement is provisioned on
        the spot -- the operator cabling a new host would notice.
        """
        alive = [
            s
            for s in self.active_tent_switches
            if s.operational and len(s.connected()) < NetworkSwitch.PORT_COUNT
        ]
        if not alive:
            replacement = self.provision_replacement_switch()
            self.active_tent_switches.append(replacement)
            return replacement
        return min(alive, key=lambda s: (len(s.connected()), s.name))

    def swap_tent_switch(self, dead: NetworkSwitch, replacement: NetworkSwitch) -> None:
        """Replace a dead switch in the tent's active set."""
        self.active_tent_switches = [
            s for s in self.active_tent_switches if s is not dead
        ]
        if replacement not in self.active_tent_switches:
            self.active_tent_switches.append(replacement)

    def next_basement_switch(self) -> NetworkSwitch:
        """Round-robin assignment of basement hosts to the healthy switches."""
        switch = self.basement_switches[self._basement_switch_rr % len(self.basement_switches)]
        self._basement_switch_rr += 1
        return switch

    def provision_replacement_switch(self) -> NetworkSwitch:
        """A healthy switch from department stock (post-failure repair)."""
        self._replacement_counter += 1
        switch = NetworkSwitch(
            f"replacement-sw{self._replacement_counter}",
            self._switch_rng,
            inherent_defect=False,
        )
        self._replacement_switches.append(switch)
        self._powered_switches.append(switch)
        return switch

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, host_id: int, enclosure: Enclosure, time: float) -> Host:
        """Install a host: power on and start its synthetic load."""
        host = self.host(host_id)
        host.install(enclosure, time)
        if host_id not in self.archivers:
            self.archivers[host_id] = ArchiverProcess(
                self.sim, host, self.ledger, tree=self.tree, fault_log=self.fault_log
            )
        if self.bus is not None:
            self.bus.publish(
                HostInstalled(
                    time=time,
                    host_id=host_id,
                    enclosure=enclosure.name,
                    group=self.config.plan_for(host_id).group,
                )
            )
        return host

    def power_tent_switches(self) -> None:
        """Power up the tent switches (at tent erection)."""
        for switch in self.tent_switches:
            if switch not in self._powered_switches:
                self._powered_switches.append(switch)

    def apply_tent_modification(self, modification, time: float) -> None:
        """Apply one envelope intervention and announce it on the bus."""
        self.tent.apply_modification(modification, time)
        if self.bus is not None:
            self.bus.publish(
                TentModified(
                    time=time, letter=modification.letter, modification=modification
                )
            )

    # ------------------------------------------------------------------
    # Time advance
    # ------------------------------------------------------------------
    def start_ticking(self, start: float) -> None:
        """Begin the periodic advance loop at simulated time ``start``."""
        if self._tick_handle is not None:
            raise RuntimeError("fleet already ticking")
        self.register_keys(self.sim)
        self._tick_handle = self.sim.every_key(
            self.config.tick_interval_s, "fleet.tick", start=start, label="fleet-tick"
        )

    def stop_ticking(self) -> None:
        """Stop the advance loop."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    def _tick(self) -> None:
        now = self.sim.now
        dt = self.config.tick_interval_s
        # 1. Heat budgets: each enclosure dissipates its hosts' average draw,
        # summed in ``hosts`` order; a host outside ``enclosures`` adds nowhere.
        loads = dict.fromkeys(self.enclosures, 0.0)
        running = HostState.RUNNING
        for host in self.hosts.values():
            enclosure = host.enclosure
            if enclosure in loads and host.state is running:
                loads[enclosure] += host.duty_power_w
        for enclosure, load in loads.items():
            enclosure.set_it_load(load)
            enclosure.advance(now)
        # 2. Running hosts age, sensors chill, hazards strike.
        fault_log = self.fault_log
        for host in self._tick_order:
            if host.state is running:
                host.tick(dt, now, fault_log)
        # 3. Switches age; new deaths get logged once.
        for switch in self._powered_switches:
            switch.tick(dt, now)
            if (
                switch.state is not SwitchState.OK
                and switch.name not in self._switch_failures_logged
            ):
                self._switch_failures_logged.add(switch.name)
                died_at = switch.failed_at if switch.failed_at is not None else now
                if self.bus is not None:
                    self.bus.publish(SwitchDied(time=died_at, switch_name=switch.name))
                else:
                    self.fault_log.record(
                        FaultEvent(
                            time=died_at,
                            kind=FaultKind.SWITCH,
                            host_id=None,
                            detail=switch.name,
                        )
                    )

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def register_keys(self, sim: Simulator) -> None:
        """Bind the fleet's tick key on ``sim`` (archivers run as quiet steps)."""
        sim.register("fleet.tick", self._tick)

    def _all_switches(self) -> List[NetworkSwitch]:
        return (
            self.tent_switches
            + [self.spare_switch]
            + self.basement_switches
            + self._replacement_switches
        )

    def _enclosure_by_name(self) -> Dict[str, Enclosure]:
        return {e.name: e for e in self.enclosures}

    def state_dict(self) -> Dict[str, Any]:
        """Everything physical: enclosures, switches, hosts, workload.

        Replacement switches are recorded by count and reconstructed by
        name on load (their RNG stream position rides in the campaign's
        RNG snapshot); host-to-enclosure links are recorded by enclosure
        name and re-resolved against the rebuilt enclosures.
        """
        return {
            "version": _STATE_VERSION,
            "enclosures": {e.name: e.state_dict() for e in self.enclosures},
            "replacement_counter": self._replacement_counter,
            "switches": {s.name: s.state_dict() for s in self._all_switches()},
            "active_tent_switches": [s.name for s in self.active_tent_switches],
            "powered_switches": [s.name for s in self._powered_switches],
            "basement_switch_rr": self._basement_switch_rr,
            "tent_switch_rr": self._tent_switch_rr,
            "switch_failures_logged": sorted(self._switch_failures_logged),
            "hosts": {
                str(host_id): self.hosts[host_id].state_dict()
                for host_id in sorted(self.hosts)
            },
            "ledger": self.ledger.state_dict(),
            "archivers": {
                str(host_id): self.archivers[host_id].state_dict()
                for host_id in sorted(self.archivers)
            },
            "tick_task_id": (
                self._tick_handle.task_id if self._tick_handle is not None else None
            ),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        check_version("fleet", state, _STATE_VERSION)
        enclosures = self._enclosure_by_name()
        for name, enclosure_state in state["enclosures"].items():
            if name not in enclosures:
                raise StateError(f"snapshot names unknown enclosure {name!r}")
            enclosures[name].load_state_dict(enclosure_state)
        # Replacement switches were provisioned at runtime: re-provision
        # the same count (same names, same shared RNG stream) then load
        # every switch's recorded state over the fresh objects.
        self._replacement_counter = 0
        self._replacement_switches = []
        self._powered_switches = list(self.basement_switches)
        for _ in range(int(state["replacement_counter"])):
            self.provision_replacement_switch()
        switches = {s.name: s for s in self._all_switches()}
        for name, switch_state in state["switches"].items():
            if name not in switches:
                raise StateError(f"snapshot names unknown switch {name!r}")
            switches[name].load_state_dict(switch_state)
        self.active_tent_switches = [
            switches[name] for name in state["active_tent_switches"]
        ]
        self._powered_switches = [
            switches[name] for name in state["powered_switches"]
        ]
        self._basement_switch_rr = int(state["basement_switch_rr"])
        self._tent_switch_rr = int(state["tent_switch_rr"])
        self._switch_failures_logged = set(state["switch_failures_logged"])
        for host_id_str, host_state in state["hosts"].items():
            host = self.host(int(host_id_str))
            host.load_state_dict(host_state)
            enclosure_name = host_state["enclosure"]
            host.enclosure = (
                None if enclosure_name is None else enclosures[enclosure_name]
            )
        self.ledger.load_state_dict(state["ledger"])
        for host_id_str, archiver_state in sorted(
            state["archivers"].items(), key=lambda kv: int(kv[0])
        ):
            host_id = int(host_id_str)
            if host_id not in self.archivers:
                self.archivers[host_id] = ArchiverProcess(
                    self.sim,
                    self.host(host_id),
                    self.ledger,
                    tree=self.tree,
                    fault_log=self.fault_log,
                )
            self.archivers[host_id].load_state_dict(archiver_state)
        self._restore_task_id = state["tick_task_id"]

    def rebind(self, sim: Simulator) -> None:
        """Re-link the tick and queue the archivers' pending steps again
        after the engine's state loads."""
        if self._restore_task_id is not None:
            self._tick_handle = sim.periodic_task(int(self._restore_task_id))
            self._restore_task_id = None
        for host_id in sorted(self.archivers):
            self.archivers[host_id].rebind(sim)
