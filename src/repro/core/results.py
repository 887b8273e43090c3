"""What a finished run exposes.

:class:`ExperimentResults` bundles every live record store (weather
station, Lascar logger, power meter, monitoring archive, workload ledger,
fault log, the fleet itself) plus the two derived artefacts the paper
reports from: the :class:`PrototypeResult` of the plastic-box weekend and
the :class:`SnapshotCensus` taken at "the time of writing".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.failures import FailureCensus, census_from_events
from repro.analysis.memory_errors import MemoryErrorEstimate, estimate_memory_error_ratio
from repro.analysis.series import TimeSeries
from repro.core.config import ExperimentConfig
from repro.core.deployment import Fleet
from repro.core.protocol import OperatorPolicy
from repro.hardware.faults import FaultKind, FaultLog
from repro.monitoring.collector import MonitoringHost
from repro.monitoring.datalogger import LascarDataLogger
from repro.monitoring.powermeter import TechnolineCostControl
from repro.sim.clock import SimClock
from repro.climate.station import WeatherStation
from repro.workload.archiver import WorkloadLedger


@dataclass(frozen=True)
class PrototypeResult:
    """Outcome of the Feb 12-15 plastic-box weekend (Section 3.1)."""

    start: float
    end: float
    outside_min_c: float
    outside_mean_c: float
    cpu_min_c: float
    survived: bool

    def describe(self) -> str:
        """Paper-style summary sentence."""
        verdict = "remained operational for the whole weekend" if self.survived else "FAILED"
        return (
            f"prototype {verdict}; outside min {self.outside_min_c:.1f} degC, "
            f"mean {self.outside_mean_c:.1f} degC; CPU as low as {self.cpu_min_c:.1f} degC"
        )


@dataclass(frozen=True)
class SnapshotCensus:
    """The paper's "current knowledge" numbers, frozen at the snapshot date."""

    time: float
    total_runs: int
    wrong_hashes: int
    wrong_hash_hosts: Tuple[int, ...]
    failed_host_ids: Tuple[int, ...]
    tent_failed: int
    basement_failed: int
    initially_installed: int

    @property
    def failure_rate_percent(self) -> float:
        """Failed hosts over initially installed hosts (the paper's 5.6 %)."""
        if self.initially_installed == 0:
            return 0.0
        return 100.0 * len(self.failed_host_ids) / self.initially_installed


def take_snapshot(
    config: ExperimentConfig,
    ledger: WorkloadLedger,
    fault_log: FaultLog,
    time: float,
) -> SnapshotCensus:
    """Freeze the paper-style census from live experiment state at ``time``."""
    tent_ids = [p.host_id for p in config.plans_by_group("tent")]
    basement_ids = [p.host_id for p in config.plans_by_group("basement")]
    events = [e for e in fault_log.events if e.time <= time]
    tent = census_from_events("tent", tent_ids, events)
    basement = census_from_events("basement", basement_ids, events)
    overall = census_from_events("all installed", tent_ids + basement_ids, events)
    failed = tuple(sorted({e.host_id for e in overall.failure_events if e.host_id}))
    return SnapshotCensus(
        time=time,
        total_runs=ledger.total_runs,
        wrong_hashes=ledger.total_wrong_hashes,
        wrong_hash_hosts=tuple(ledger.hosts_with_wrong_hashes()),
        failed_host_ids=failed,
        tent_failed=tent.hosts_failed,
        basement_failed=basement.hosts_failed,
        initially_installed=overall.hosts_total,
    )


class ExperimentResults:
    """Everything a finished (or snapshot-interrupted) run produced."""

    def __init__(
        self,
        config: ExperimentConfig,
        clock: SimClock,
        fleet: Fleet,
        station: WeatherStation,
        lascar: LascarDataLogger,
        powermeter: TechnolineCostControl,
        monitoring: MonitoringHost,
        policy: OperatorPolicy,
        fault_log: FaultLog,
        prototype: Optional[PrototypeResult],
        snapshot: Optional[SnapshotCensus],
        end_time: float,
        webcam=None,
        bus=None,
        recorder=None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.fleet = fleet
        self.station = station
        self.lascar = lascar
        self.powermeter = powermeter
        self.monitoring = monitoring
        self.policy = policy
        self.fault_log = fault_log
        self.prototype = prototype
        self.snapshot = snapshot
        self.end_time = end_time
        #: The terrace webcam (None for runs built without one).
        self.webcam = webcam
        #: The campaign event bus (None for pre-bus construction paths).
        self.bus = bus
        #: The run's :class:`~repro.sim.events.EventRecorder` (or None).
        self.recorder = recorder
        #: The run's :class:`~repro.telemetry.hub.Telemetry` -- metrics
        #: registry and span tracer -- or None for a run built without
        #: ``CampaignBuilder.with_telemetry``.
        self.telemetry = telemetry

    def __repr__(self) -> str:
        return (
            f"ExperimentResults(runs={self.ledger.total_runs}, "
            f"faults={len(self.fault_log)}, end={self.clock.format(self.end_time)})"
        )

    # ------------------------------------------------------------------
    # Shortcuts
    # ------------------------------------------------------------------
    @property
    def ledger(self) -> WorkloadLedger:
        """The fleet-wide workload census."""
        return self.fleet.ledger

    @property
    def tent(self):
        """The tent enclosure."""
        return self.fleet.tent

    @property
    def transfers(self):
        """The monitoring host's rsync traffic ledger (None if not wired)."""
        return self.monitoring.transport

    @property
    def events(self):
        """Recorded bus events in publish order ([] without a recorder)."""
        return self.recorder.events if self.recorder is not None else []

    def event_counts(self) -> Dict[str, int]:
        """Recorded-event tally per event class name ({} without a recorder)."""
        return self.recorder.counts() if self.recorder is not None else {}

    def tent_host_ids(self) -> List[int]:
        """Initially-installed tent host ids (excludes the spare)."""
        return [p.host_id for p in self.config.plans_by_group("tent")]

    def basement_host_ids(self) -> List[int]:
        """Control-group host ids."""
        return [p.host_id for p in self.config.plans_by_group("basement")]

    # ------------------------------------------------------------------
    # Series
    # ------------------------------------------------------------------
    def outside_temperature(self) -> TimeSeries:
        """SMEAR III-style outside temperature record."""
        return TimeSeries(self.station.times(), self.station.temperatures())

    def outside_humidity(self) -> TimeSeries:
        """Outside relative humidity record."""
        return TimeSeries(self.station.times(), self.station.humidities())

    def inside_temperature_raw(self) -> TimeSeries:
        """Tent-internal temperature, outliers included."""
        return TimeSeries(self.lascar.times(), self.lascar.temperatures())

    def inside_humidity_raw(self) -> TimeSeries:
        """Tent-internal relative humidity, outliers included."""
        return TimeSeries(self.lascar.times(), self.lascar.humidities())

    # ------------------------------------------------------------------
    # Censuses
    # ------------------------------------------------------------------
    def _events_until(self, until: Optional[float]):
        if until is None:
            return list(self.fault_log.events)
        return [e for e in self.fault_log.events if e.time <= until]

    def overall_census(self, until: Optional[float] = None) -> FailureCensus:
        """The paper's headline census over all 18 initially installed hosts."""
        ids = self.tent_host_ids() + self.basement_host_ids()
        return census_from_events("all installed", ids, self._events_until(until))

    def memory_error_estimate(self) -> MemoryErrorEstimate:
        """Section 4.2.2's page-op arithmetic over this run."""
        return estimate_memory_error_ratio(self.ledger, self.fleet.tree)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Multi-line run overview (the quickstart example prints this)."""
        lines = [
            f"Campaign {self.clock.format(0.0)} .. {self.clock.format(self.end_time)}",
        ]
        if self.prototype is not None:
            lines.append(f"Prototype: {self.prototype.describe()}")
        outside = self.outside_temperature()
        if not outside.empty:
            lines.append(
                f"Outside: min {outside.min():.1f} degC, mean {outside.mean():.1f} degC"
            )
        inside = self.inside_temperature_raw()
        if not inside.empty:
            lines.append(
                f"Tent: min {inside.min():.1f} degC, max {inside.max():.1f} degC "
                f"(raw, incl. download-trip outliers)"
            )
        lines.append(
            f"Workload: {self.ledger.total_runs} runs, "
            f"{self.ledger.total_wrong_hashes} wrong hashes "
            f"on hosts {self.ledger.hosts_with_wrong_hashes() or 'none'}"
        )
        census = self.overall_census()
        lines.append(census.describe())
        switch_failures = self.fault_log.of_kind(FaultKind.SWITCH)
        lines.append(f"Switch failures: {len(switch_failures)}")
        if self.snapshot is not None:
            lines.append(
                f"Paper-snapshot ({self.clock.format(self.snapshot.time)}): "
                f"{self.snapshot.failure_rate_percent:.1f} % host failure rate, "
                f"{self.snapshot.wrong_hashes}/{self.snapshot.total_runs} wrong hashes"
            )
        return "\n".join(lines)
