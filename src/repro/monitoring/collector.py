"""The monitoring host: 20-minute rsync rounds over SSH.

Section 3.5: "Some load is additionally generated by the monitoring host,
which recovers all calculated md5sums and data gathered from the local
sensors every 20 minutes.  The transfer is done using public-key
authentication through an OpenSSH tunnel, and new files are transferred by
the rsync program."

The reproduction models what matters to the census:

- a :class:`NetworkPath` per host through the tent's (defective) 8-port
  switches -- when a switch dies, its hosts become unreachable and the
  collection round reports them, which is how the operators noticed;
- per-round :class:`SensorRecord` pulls (including the -111 degC erratic
  readings that flagged the sensor-chip failure);
- detection of down hosts (a failed host does not answer SSH).

Degraded mode
-------------
The historical collector assumed a perfect network: a reachable host
always answered SSH instantly and every rsync session completed in
full.  The degraded-mode plane relaxes both assumptions without
touching the simulated hardware:

- a :class:`~repro.monitoring.transport.LinkFaultPlan` injects
  deterministic SSH timeouts, partial transfers, and slow sessions
  into the observation path (the hosts underneath keep ticking --
  observation degrades, ground truth doesn't);
- a :class:`~repro.monitoring.health.HealthPolicy` grants in-round SSH
  retries (the runner's seeded-jitter backoff accounts the waiting)
  and demands ``confirm_rounds`` consecutive failures before a host is
  confirmed down -- unconfirmed failures land in
  ``CollectionRound.degraded_host_ids`` and raise
  :class:`~repro.sim.events.HostSuspect` instead of invoking the
  operator playbook.

With no fault plan and the default policy every code path below
reduces to the historical behaviour, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.host import Host, HostState
from repro.hardware.switch import NetworkSwitch
from repro.monitoring.health import HealthPolicy, HealthTracker, HostHealthState
from repro.monitoring.records import SensorRecord
from repro.monitoring.transport import LinkFault, LinkFaultAction, LinkFaultPlan, TransferLedger
from repro.sim.clock import MINUTE
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.events import (
    EventBus,
    HostDownObserved,
    HostRecovered,
    HostSuspect,
    HostUnreachable,
    SensorAnomalyObserved,
    SensorMuteObserved,
)
from repro.state.codec import History, encode_rows
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1

#: "every 20 minutes"
COLLECTION_PERIOD_S = 20 * MINUTE
#: Readings at/below this are flagged as sensor anomalies.
_ANOMALY_THRESHOLD_C = -60.0

_SENSOR_RECORDS = History(
    SensorRecord,
    [("time", float), ("host_id", int), ("cpu_temp_c", Optional[float])],
)


class NetworkPath:
    """The chain of switches between the monitoring host and one host."""

    def __init__(self, host: Host, switches: Sequence[NetworkSwitch]) -> None:
        self.host = host
        self.switches: List[NetworkSwitch] = list(switches)
        for switch in self.switches:
            switch.connect(host.hostname)

    def __repr__(self) -> str:
        chain = " -> ".join(s.name for s in self.switches) or "direct"
        return f"NetworkPath({self.host.hostname} via {chain})"

    @property
    def up(self) -> bool:
        """Whether frames currently flow end to end."""
        return all(s.carries(self.host.hostname) for s in self.switches)

    def reroute(self, switches: Sequence[NetworkSwitch]) -> None:
        """Re-cable the host through a different switch chain."""
        for old in self.switches:
            old.disconnect(self.host.hostname)
        self.switches = list(switches)
        for switch in self.switches:
            switch.connect(self.host.hostname)


@dataclass(frozen=True)
class CollectionRound:
    """Summary of one 20-minute collection pass.

    ``degraded_host_ids`` are hosts whose contact failed this round but
    whose outage is not yet confirmed by the health policy (they are
    *not* in the down/unreachable lists); ``sensor_mute_host_ids`` is
    the vanished-chip subset of ``sensor_anomaly_host_ids``;
    ``retries`` counts extra SSH attempts spent within the round.
    """

    time: float
    collected_host_ids: Tuple[int, ...]
    unreachable_host_ids: Tuple[int, ...]  # network path down (confirmed)
    down_host_ids: Tuple[int, ...]  # host itself not answering (confirmed)
    sensor_anomaly_host_ids: Tuple[int, ...]
    degraded_host_ids: Tuple[int, ...] = ()
    sensor_mute_host_ids: Tuple[int, ...] = ()
    retries: int = 0

    @property
    def all_quiet(self) -> bool:
        """True when every host answered with plausible telemetry."""
        return not (
            self.unreachable_host_ids
            or self.down_host_ids
            or self.sensor_anomaly_host_ids
            or self.degraded_host_ids
        )


@dataclass(frozen=True)
class _ContactResult:
    """Outcome of the SSH attempts against one host in one round."""

    ok: bool
    attempts: int
    fault: Optional[LinkFault]  # the non-timeout fault riding the session
    backoff_s: float

    @property
    def retries(self) -> int:
        return self.attempts - 1


_CLEAN_CONTACT = _ContactResult(ok=True, attempts=1, fault=None, backoff_s=0.0)


def _encode_round(r: CollectionRound) -> List[Any]:
    """One round as the plain row a checkpoint stores."""
    return [
        r.time,
        list(r.collected_host_ids),
        list(r.unreachable_host_ids),
        list(r.down_host_ids),
        list(r.sensor_anomaly_host_ids),
        list(r.degraded_host_ids),
        list(r.sensor_mute_host_ids),
        r.retries,
    ]


class MonitoringHost:
    """Runs the periodic collection rounds and keeps the telemetry archive.

    Parameters
    ----------
    sim:
        The simulator.
    on_down_host / on_unreachable / on_sensor_anomaly:
        Operator-notification callbacks ``(time, host_or_path)``; the
        experiment protocol wires these to its intervention policies.
        With a health policy demanding confirmation, only *confirmed*
        outages reach these callbacks.
    transport / workload_ledger:
        When both are given, each successful host contact is accounted as
        an incremental rsync session (new md5sum lines + new sensor
        samples) in the :class:`~repro.monitoring.transport.TransferLedger`,
        modelling the monitoring host's own load (Section 3.5).
    bus:
        Optional campaign event bus.  Each anomaly a round observes is
        published (:class:`~repro.sim.events.HostDownObserved`,
        :class:`~repro.sim.events.HostUnreachable`,
        :class:`~repro.sim.events.SensorAnomalyObserved` /
        :class:`~repro.sim.events.SensorMuteObserved`, and in degraded
        mode :class:`~repro.sim.events.HostSuspect` /
        :class:`~repro.sim.events.HostRecovered`) before the matching
        operator callback fires.
    telemetry:
        Optional :class:`~repro.telemetry.hub.Telemetry`.  When set, each
        round is wrapped in a ``monitoring.collect_round`` span and its
        outcome tallied into deterministic counters and a hosts-per-round
        histogram; when ``None`` (the default) rounds take one extra
        ``is None`` check and nothing else.
    link_faults:
        Optional :class:`~repro.monitoring.transport.LinkFaultPlan`
        injecting deterministic transport faults into the rounds.
    health:
        Optional :class:`~repro.monitoring.health.HealthPolicy`; the
        default confirms on the first failed observation and grants no
        retries -- the historical behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        on_down_host: Optional[Callable[[float, Host], None]] = None,
        on_unreachable: Optional[Callable[[float, NetworkPath], None]] = None,
        on_sensor_anomaly: Optional[Callable[[float, Host], None]] = None,
        transport: Optional[TransferLedger] = None,
        workload_ledger=None,
        bus: Optional[EventBus] = None,
        telemetry: Optional[Any] = None,
        link_faults: Optional[LinkFaultPlan] = None,
        health: Optional[HealthPolicy] = None,
    ) -> None:
        self.sim = sim
        self.paths: Dict[int, NetworkPath] = {}
        #: Round-order cache, invalidated on (un)register; the collector
        #: walks every host every 20 minutes, the topology rarely changes.
        self._sorted_ids: Optional[List[int]] = None
        self.sensor_records = _SENSOR_RECORDS.store()  # SensorRecord rows
        self.rounds: List[CollectionRound] = []
        self.on_down_host = on_down_host
        self.on_unreachable = on_unreachable
        self.on_sensor_anomaly = on_sensor_anomaly
        self.transport = transport
        self.workload_ledger = workload_ledger
        self.bus = bus
        self.telemetry = telemetry
        self.link_faults = link_faults
        self.health_policy = health if health is not None else HealthPolicy()
        self._tracker = HealthTracker(self.health_policy)
        self._handle: Optional[PeriodicTask] = None
        self._restore_task_id: Optional[int] = None

        # Degraded-plane running totals (zero and untouched by default).
        self.retries_total = 0
        self.retry_backoff_s_total = 0.0
        self.ssh_timeouts_total = 0
        self.partial_transfers_total = 0
        self.slow_sessions_total = 0
        self.slow_session_s_total = 0.0
        self.sensor_mute_total = 0
        self.sensor_erratic_total = 0

    def __repr__(self) -> str:
        return f"MonitoringHost(hosts={len(self.paths)}, rounds={len(self.rounds)})"

    @property
    def false_alarms_suppressed(self) -> int:
        """Suspicions that recovered before reaching the operator."""
        return self._tracker.false_alarms_suppressed

    @property
    def tracker(self) -> HealthTracker:
        """The per-host health state machine (read-mostly introspection)."""
        return self._tracker

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, host: Host, switches: Sequence[NetworkSwitch]) -> NetworkPath:
        """Cable a host into the monitored network."""
        if host.host_id in self.paths:
            raise ValueError(f"{host.hostname} already registered")
        path = NetworkPath(host, switches)
        self.paths[host.host_id] = path
        self._sorted_ids = None
        return path

    def unregister(self, host: Host) -> None:
        """Remove a host (retired from the experiment)."""
        path = self.paths.pop(host.host_id, None)
        self._sorted_ids = None
        if path is not None:
            for switch in path.switches:
                switch.disconnect(host.hostname)
        self._tracker.forget(host.host_id)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect_round(self) -> CollectionRound:
        """One rsync pass over every registered host.

        With telemetry attached, the pass is timed as a
        ``monitoring.collect_round`` span and its outcome counted.
        """
        if self.telemetry is None:
            return self._collect()
        partials_before = self.partial_transfers_total
        suppressed_before = self._tracker.false_alarms_suppressed
        timeouts_before = self.ssh_timeouts_total
        slow_before = self.slow_sessions_total
        started = perf_counter()
        try:
            round_ = self._collect()
        finally:
            self.telemetry.spans.record(
                "monitoring.collect_round", perf_counter() - started
            )
        metrics = self.telemetry.metrics
        metrics.counter("monitoring.rounds").inc()
        metrics.counter("monitoring.hosts_collected").inc(len(round_.collected_host_ids))
        metrics.counter("monitoring.hosts_unreachable").inc(
            len(round_.unreachable_host_ids)
        )
        metrics.counter("monitoring.hosts_down").inc(len(round_.down_host_ids))
        metrics.counter("monitoring.sensor_anomalies").inc(
            len(round_.sensor_anomaly_host_ids)
        )
        metrics.counter("monitoring.sensor_mute").inc(
            len(round_.sensor_mute_host_ids)
        )
        metrics.counter("monitoring.hosts_degraded").inc(
            len(round_.degraded_host_ids)
        )
        metrics.counter("monitoring.retries").inc(round_.retries)
        metrics.counter("monitoring.ssh_timeouts").inc(
            self.ssh_timeouts_total - timeouts_before
        )
        metrics.counter("monitoring.partial_transfers").inc(
            self.partial_transfers_total - partials_before
        )
        metrics.counter("monitoring.slow_sessions").inc(
            self.slow_sessions_total - slow_before
        )
        metrics.counter("monitoring.false_alarms_suppressed").inc(
            self._tracker.false_alarms_suppressed - suppressed_before
        )
        metrics.histogram("monitoring.round_hosts").observe(
            len(round_.collected_host_ids)
        )
        return round_

    def _collect(self) -> CollectionRound:
        time = self.sim.now
        round_index = len(self.rounds)
        collected: List[int] = []
        unreachable: List[int] = []
        down: List[int] = []
        degraded: List[int] = []
        anomalies: List[int] = []
        mutes: List[int] = []
        retries = 0
        if self._sorted_ids is None:
            self._sorted_ids = sorted(self.paths)
        for host_id in self._sorted_ids:
            path = self.paths[host_id]
            host = path.host
            if not path.up:
                self._observe_failure(
                    time, host_id, HostHealthState.UNREACHABLE, path, host,
                    unreachable, degraded,
                )
                continue
            if host.state is not HostState.RUNNING:
                self._observe_failure(
                    time, host_id, HostHealthState.DOWN, path, host, down, degraded
                )
                continue
            contact = self._contact(host_id, round_index)
            retries += contact.retries
            if not contact.ok:
                # Every SSH attempt timed out.  From the monitoring
                # host's chair that is indistinguishable from a down
                # host; the host-local sampler still fired (the sample
                # waits in the rsync backlog), which also keeps the
                # hardware's RNG cadence identical to a fault-free run.
                host.sensor_poll(time)
                self._observe_failure(
                    time, host_id, HostHealthState.DOWN, path, host, down, degraded
                )
                continue
            suppressed = self._tracker.observe_ok(host_id)
            if suppressed and self.bus is not None:
                self.bus.publish(
                    HostRecovered(time=time, host_id=host_id, rounds_suspect=suppressed)
                )
            temp_c = host.sensor_poll(time)
            self.sensor_records.append(time, host_id, temp_c)
            if self.transport is not None and self.workload_ledger is not None:
                produced_md5 = self.workload_ledger.runs_per_host.get(host_id, 0)
                produced_samples = len(host.sensor.history)
                cap: Optional[int] = None
                if (
                    contact.fault is not None
                    and contact.fault.action is LinkFaultAction.PARTIAL_TRANSFER
                ):
                    pending = self.transport.channel(host_id).pending(
                        produced_md5, produced_samples
                    )
                    cap = int(pending * contact.fault.fraction)
                    self.partial_transfers_total += 1
                self.transport.record_sync(
                    time,
                    host_id,
                    produced_md5_lines=produced_md5,
                    produced_sensor_samples=produced_samples,
                    max_payload_bytes=cap,
                )
            if (
                contact.fault is not None
                and contact.fault.action is LinkFaultAction.SLOW_SESSION
            ):
                self.slow_sessions_total += 1
                self.slow_session_s_total += contact.fault.delay_s
            mute = temp_c is None
            erratic = not mute and temp_c <= _ANOMALY_THRESHOLD_C
            if mute or erratic:
                anomalies.append(host_id)
                if mute:
                    # The chip is off the bus (the paper's post-redetect
                    # state) -- mute, not erratic.
                    mutes.append(host_id)
                    self.sensor_mute_total += 1
                    event: SensorAnomalyObserved = SensorMuteObserved(
                        time=time, host_id=host_id, reading_c=None
                    )
                else:
                    # The -111 degC class of cold-latched readings.
                    self.sensor_erratic_total += 1
                    event = SensorAnomalyObserved(
                        time=time, host_id=host_id, reading_c=temp_c
                    )
                if self.bus is not None:
                    self.bus.publish(event)
                if self.on_sensor_anomaly is not None:
                    self.on_sensor_anomaly(time, host)
            collected.append(host_id)
        round_ = CollectionRound(
            time=time,
            collected_host_ids=tuple(collected),
            unreachable_host_ids=tuple(unreachable),
            down_host_ids=tuple(down),
            sensor_anomaly_host_ids=tuple(anomalies),
            degraded_host_ids=tuple(degraded),
            sensor_mute_host_ids=tuple(mutes),
            retries=retries,
        )
        self.rounds.append(round_)
        self.retries_total += retries
        return round_

    def _contact(self, host_id: int, round_index: int) -> _ContactResult:
        """Attempt the SSH session(s) for one host in one round."""
        plan = self.link_faults
        if plan is None:
            return _CLEAN_CONTACT
        policy = self.health_policy.retry
        backoff = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            fault = plan.lookup(host_id, round_index, attempt)
            if fault is None or fault.action is not LinkFaultAction.SSH_TIMEOUT:
                return _ContactResult(
                    ok=True, attempts=attempt, fault=fault, backoff_s=backoff
                )
            self.ssh_timeouts_total += 1
            if attempt < policy.max_attempts:
                # Deterministic seeded-jitter backoff, accounted as the
                # monitoring host's wall time (rounds are instantaneous
                # in simulated time).
                delay = policy.backoff_s(
                    attempt, seed=host_id * 1_000_003 + round_index
                )
                backoff += delay
                self.retry_backoff_s_total += delay
        return _ContactResult(
            ok=False, attempts=policy.max_attempts, fault=None, backoff_s=backoff
        )

    def _observe_failure(
        self,
        time: float,
        host_id: int,
        kind: HostHealthState,
        path: NetworkPath,
        host: Host,
        confirmed_list: List[int],
        degraded_list: List[int],
    ) -> None:
        """Run a failed observation through the health state machine."""
        observation = self._tracker.observe_failure(host_id, kind)
        if not observation.confirmed:
            degraded_list.append(host_id)
            if self.bus is not None:
                self.bus.publish(
                    HostSuspect(
                        time=time,
                        host_id=host_id,
                        kind=kind.value,
                        streak=observation.streak,
                    )
                )
            return
        confirmed_list.append(host_id)
        if kind is HostHealthState.UNREACHABLE:
            if self.bus is not None:
                self.bus.publish(HostUnreachable(time=time, host_id=host_id))
            if self.on_unreachable is not None:
                self.on_unreachable(time, path)
        else:
            if self.bus is not None:
                self.bus.publish(HostDownObserved(time=time, host_id=host_id))
            if self.on_down_host is not None:
                self.on_down_host(time, host)

    def attach(self, start: Optional[float] = None) -> None:
        """Start the 20-minute collection loop."""
        if self._handle is not None:
            raise RuntimeError("collector already attached")
        first = self.sim.now if start is None else start
        self.register_keys(self.sim)
        self._handle = self.sim.every_key(
            COLLECTION_PERIOD_S, "monitoring.collect", start=first, label="collector"
        )

    def detach(self) -> None:
        """Stop collecting."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def register_keys(self, sim: Simulator) -> None:
        """Bind the collection-round registry key on ``sim``."""
        sim.register("monitoring.collect", self.collect_round)

    def state_dict(self) -> Dict[str, Any]:
        """Rounds, sensor archive, degraded-plane totals, and topology.

        ``topology`` records each registered host's switch chain by name;
        the restoring campaign re-cables hosts through the fleet's
        switches (which it owns), so :class:`NetworkPath` objects are
        reconstructed rather than serialized.
        """
        return {
            "version": _STATE_VERSION,
            "task_id": self._handle.task_id if self._handle is not None else None,
            "topology": {
                str(host_id): [s.name for s in path.switches]
                for host_id, path in sorted(self.paths.items())
            },
            "sensor_records": self.sensor_records.capture(),
            "rounds": encode_rows(self.rounds, _encode_round),
            "totals": [
                self.retries_total,
                self.retry_backoff_s_total,
                self.ssh_timeouts_total,
                self.partial_transfers_total,
                self.slow_sessions_total,
                self.slow_session_s_total,
                self.sensor_mute_total,
                self.sensor_erratic_total,
            ],
            "tracker": self._tracker.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore archive and totals; topology is re-cabled by the campaign.

        A malformed blob raises :class:`StateError` and changes nothing.
        """
        with parsing("collector"):
            check_version("collector", state, _STATE_VERSION)
            sensor_records = _SENSOR_RECORDS.restore(state["sensor_records"])
            rounds = [
                CollectionRound(
                    time=float(time),
                    collected_host_ids=tuple(int(i) for i in collected),
                    unreachable_host_ids=tuple(int(i) for i in unreachable),
                    down_host_ids=tuple(int(i) for i in down),
                    sensor_anomaly_host_ids=tuple(int(i) for i in anomalies),
                    degraded_host_ids=tuple(int(i) for i in degraded),
                    sensor_mute_host_ids=tuple(int(i) for i in mutes),
                    retries=int(retries),
                )
                for time, collected, unreachable, down, anomalies, degraded, mutes, retries in state["rounds"]
            ]
            totals = state["totals"]
            totals = (
                int(totals[0]),
                float(totals[1]),
                int(totals[2]),
                int(totals[3]),
                int(totals[4]),
                float(totals[5]),
                int(totals[6]),
                int(totals[7]),
            )
            task_id = state["task_id"]
            task_id = None if task_id is None else int(task_id)
            # Last: the tracker itself loads all or nothing.
            self._tracker.load_state_dict(state["tracker"])
        self.sensor_records = sensor_records
        self.rounds = rounds
        (
            self.retries_total,
            self.retry_backoff_s_total,
            self.ssh_timeouts_total,
            self.partial_transfers_total,
            self.slow_sessions_total,
            self.slow_session_s_total,
            self.sensor_mute_total,
            self.sensor_erratic_total,
        ) = totals
        self._restore_task_id = task_id

    def rebind(self, sim: Simulator) -> None:
        """Re-link the periodic task after the engine's state is loaded."""
        if self._restore_task_id is not None:
            self._handle = sim.periodic_task(self._restore_task_id)
            self._restore_task_id = None

    # ------------------------------------------------------------------
    # Census helpers
    # ------------------------------------------------------------------
    def records_for_host(self, host_id: int) -> List[SensorRecord]:
        """All sensor records pulled from one host."""
        records = self.sensor_records
        return records.rows(records.column("host_id") == host_id)

    def erroneous_readings(self) -> List[SensorRecord]:
        """The -111 degC class of readings across the fleet."""
        records = self.sensor_records
        return records.rows(records.column("cpu_temp_c") <= _ANOMALY_THRESHOLD_C)

    def mute_readings(self) -> List[SensorRecord]:
        """Rounds where a host's sensor chip was absent from the bus."""
        records = self.sensor_records
        return records.rows(np.isnan(records.column("cpu_temp_c")))
