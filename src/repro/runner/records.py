"""Picklable run records: what a campaign leaves behind when it crosses
a process boundary.

A finished :class:`~repro.core.results.ExperimentResults` holds live
object graphs (the fleet, the simulator, every archiver generator) that
neither pickle nor belong in a results cache.  :class:`RunRecord`
distils the run into plain values: the headline census, fault and bus
tallies, the paper-snapshot numbers, and a :class:`SeriesDigest` per
instrument series (sha256 over the raw float64 bytes, so byte-identity
between two runs is checkable without shipping the series itself).

Two supporting pieces:

- :func:`config_digest` canonicalises an :class:`ExperimentConfig` into
  stable JSON and hashes it -- the cache key that keeps a memoised
  record from being served to a different campaign;
- JSON round-tripping (:meth:`RunRecord.to_json_dict` /
  :func:`record_from_json_dict`) for the on-disk cache.

``elapsed_s`` is wall-clock bookkeeping: it is excluded from equality
and from :meth:`RunRecord.canonical_json`, so records from a serial and
a parallel run of the same campaign compare byte-identical.  The same
split applies to the optional :class:`~repro.telemetry.hub.Telemetry`
hub a record carries (its own copy, taken when the record is built):
span fire counts, counters, gauges, and histograms are deterministic and
compare; per-span wall times do not (see
:meth:`repro.telemetry.hub.Telemetry.deterministic_dict`).  Records
produced with telemetry off omit the key entirely, staying
byte-identical to the pre-telemetry layout.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.seedsweep import SeedOutcome
from repro.core.config import ExperimentConfig
from repro.telemetry.hub import Telemetry

#: Bump when the record layout changes; stale cache files are evicted.
#: 2: the event taxonomy grew SensorMuteObserved (vanished-chip readings
#: that used to count under SensorAnomalyObserved split out), shifting
#: ``event_counts`` in otherwise-identical runs.
RECORD_SCHEMA = 2


@dataclass(frozen=True)
class FailedRun:
    """The tombstone of a spec that exhausted its attempts.

    When a sweep runs with ``strict=False`` (the ``--keep-going``
    semantics), a spec whose every attempt crashed or timed out does not
    poison the sweep: its surviving siblings still return records, and
    this entry lands in ``SweepResult.failures`` instead.  ``spec`` is
    the :class:`~repro.runner.pool.RunSpec` itself (typed loosely here
    because records sits *below* pool in the layering).
    """

    spec: Any
    attempts: int
    error_type: str
    error_message: str
    timed_out: bool = False

    @property
    def seed(self) -> int:
        """The failed spec's master seed."""
        return self.spec.seed

    def describe(self) -> str:
        """One report line: who failed, how often, and why."""
        label = self.spec.label or f"seed {self.spec.seed}"
        note = ", timed out" if self.timed_out else ""
        return (
            f"{label}: {self.error_type} after {self.attempts} "
            f"attempt(s){note}: {self.error_message}"
        )


# ----------------------------------------------------------------------
# Config digests
# ----------------------------------------------------------------------
def _canonicalise(value: Any) -> Any:
    """Reduce a config value to JSON-stable plain data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, _dt.datetime):
        return value.isoformat()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonicalise(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonicalise(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonicalise(v) for v in value]
    raise TypeError(f"cannot canonicalise {type(value).__name__} for digesting")


def config_digest(config: ExperimentConfig) -> str:
    """Stable sha256 hex digest of a campaign configuration."""
    canonical = json.dumps(_canonicalise(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Series digests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeriesDigest:
    """Fingerprint + range summary of one instrument series.

    The range stats are ``None`` for an empty series -- not NaN, which
    would break the equality that the serial-vs-parallel determinism
    guarantee rests on (``nan != nan``).
    """

    name: str
    points: int
    sha256: str
    minimum: Optional[float]
    mean: Optional[float]
    maximum: Optional[float]


def digest_series(name: str, series) -> SeriesDigest:
    """Digest a :class:`~repro.analysis.series.TimeSeries`."""
    if series.empty:
        return SeriesDigest(
            name=name,
            points=0,
            sha256=hashlib.sha256(b"").hexdigest(),
            minimum=None,
            mean=None,
            maximum=None,
        )
    # The times' bytes then the values', hashed in place: no copy of
    # either array and no concatenated payload.
    sha = hashlib.sha256()
    values = np.ascontiguousarray(series.values, dtype=np.float64)
    sha.update(np.ascontiguousarray(series.times, dtype=np.float64))
    sha.update(values)
    return SeriesDigest(
        name=name,
        points=len(series),
        sha256=sha.hexdigest(),
        minimum=float(values.min()),
        mean=float(values.mean()),
        maximum=float(values.max()),
    )


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRecord:
    """The portable summary of one seeded campaign run."""

    schema: int
    seed: int
    config_digest: str
    until: str  # ISO datetime of the truncation horizon, "" for full runs
    end_time: float
    hosts_installed: int
    hosts_failed: int
    failed_host_ids: Tuple[int, ...]
    failure_events: int
    wrong_hashes: int
    wrong_hash_hosts: Tuple[int, ...]
    total_runs: int
    sensor_latches: int
    fault_counts: Tuple[Tuple[str, int], ...]
    event_counts: Tuple[Tuple[str, int], ...]
    snapshot_failure_rate_percent: Optional[float]
    snapshot_wrong_hashes: Optional[int]
    series: Tuple[SeriesDigest, ...]
    elapsed_s: float = field(compare=False, default=0.0)
    #: Telemetry hub for runs executed with telemetry on; ``None`` (and
    #: absent from the JSON forms) otherwise, which keeps telemetry-free
    #: records byte-identical to the pre-telemetry layout.  Hub equality
    #: already excludes its wall-time fields, so this field participates
    #: in record comparison.
    telemetry: Optional[Telemetry] = None

    def to_outcome(self) -> SeedOutcome:
        """The sweep-facing census view of this record."""
        return SeedOutcome(
            seed=self.seed,
            hosts_installed=self.hosts_installed,
            hosts_failed=self.hosts_failed,
            wrong_hashes=self.wrong_hashes,
            total_runs=self.total_runs,
            sensor_latches=self.sensor_latches,
        )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-data form, elapsed included (for the cache file)."""
        # Field by field: ``dataclasses.asdict`` would deep-copy the hub.
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["series"] = [dataclasses.asdict(s) for s in self.series]
        if self.telemetry is None:
            data.pop("telemetry")
        else:
            data["telemetry"] = self.telemetry.state_dict()
        return data

    def canonical_json(self) -> str:
        """Deterministic JSON, wall-clock bookkeeping excluded.

        Excluded means ``elapsed_s`` and whatever the telemetry hub
        leaves out of its deterministic part -- everything that survives
        is a pure function of (config, seed, horizon).
        """
        data = self.to_json_dict()
        data.pop("elapsed_s")
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.deterministic_dict()
        return json.dumps(data, sort_keys=True, separators=(",", ":"))


def record_from_json_dict(data: Dict[str, Any]) -> RunRecord:
    """Rebuild a record from :meth:`RunRecord.to_json_dict` output."""
    payload = dict(data)
    payload["failed_host_ids"] = tuple(payload["failed_host_ids"])
    payload["wrong_hash_hosts"] = tuple(payload["wrong_hash_hosts"])
    payload["fault_counts"] = tuple(
        (str(k), int(v)) for k, v in payload["fault_counts"]
    )
    payload["event_counts"] = tuple(
        (str(k), int(v)) for k, v in payload["event_counts"]
    )
    payload["series"] = tuple(SeriesDigest(**s) for s in payload["series"])
    telemetry = payload.get("telemetry")
    payload["telemetry"] = (
        Telemetry.from_state_dict(telemetry) if telemetry is not None else None
    )
    return RunRecord(**payload)


def record_from_results(
    seed: int,
    results,
    until: Optional[_dt.datetime] = None,
    elapsed_s: float = 0.0,
) -> RunRecord:
    """Distil a finished run into a :class:`RunRecord`.

    The census semantics match
    :func:`repro.analysis.seedsweep.outcome_from_results` exactly, so a
    pooled sweep aggregates to the same summary the serial sweep always
    produced.
    """
    census = results.overall_census()
    latches = sum(1 for h in results.fleet.hosts.values() if h.sensor.ever_latched)
    fault_tally: Dict[str, int] = {}
    for event in results.fault_log.events:
        fault_tally[event.kind.name] = fault_tally.get(event.kind.name, 0) + 1
    snapshot = results.snapshot
    telemetry = getattr(results, "telemetry", None)
    series = tuple(
        digest_series(name, getattr(results, method)())
        for name, method in (
            ("outside_temperature", "outside_temperature"),
            ("outside_humidity", "outside_humidity"),
            ("inside_temperature_raw", "inside_temperature_raw"),
            ("inside_humidity_raw", "inside_humidity_raw"),
        )
    )
    return RunRecord(
        schema=RECORD_SCHEMA,
        seed=seed,
        config_digest=config_digest(results.config),
        until=until.isoformat() if until is not None else "",
        end_time=float(results.end_time),
        hosts_installed=census.hosts_total,
        hosts_failed=census.hosts_failed,
        failed_host_ids=tuple(
            sorted({e.host_id for e in census.failure_events if e.host_id})
        ),
        failure_events=len(census.failure_events),
        wrong_hashes=results.ledger.total_wrong_hashes,
        wrong_hash_hosts=tuple(results.ledger.hosts_with_wrong_hashes()),
        total_runs=results.ledger.total_runs,
        sensor_latches=latches,
        fault_counts=tuple(sorted(fault_tally.items())),
        event_counts=tuple(sorted(results.event_counts().items())),
        snapshot_failure_rate_percent=(
            snapshot.failure_rate_percent if snapshot is not None else None
        ),
        snapshot_wrong_hashes=snapshot.wrong_hashes if snapshot is not None else None,
        series=series,
        elapsed_s=elapsed_s,
        telemetry=(
            Telemetry.from_state_dict(telemetry.state_dict())
            if telemetry is not None
            else None
        ),
    )
