"""The SSH/rsync transfer path of the monitoring rounds.

Section 3.5: "The transfer is done using public-key authentication
through an OpenSSH tunnel, and new files are transferred by the rsync
program."  Three properties of that pipeline matter to the reproduction:

- rsync is *incremental*: each round moves only the md5sum lines and
  sensor samples produced since the previous successful round (plus a
  fixed SSH/rsync session overhead), so the monitoring host's own load --
  which the paper explicitly counts as part of the synthetic workload --
  is proportional to fresh data, not archive size;
- a round that cannot reach a host moves nothing, and the *next*
  successful round carries the backlog;
- a session that dies mid-transfer moves a *prefix* of the pending
  data -- rsync's delta protocol leaves already-received files in
  place, so the next session carries only the remainder.

:class:`RsyncChannel` models one host's channel; :class:`TransferLedger`
aggregates the monitoring host's traffic for analysis.

Link faults
-----------
Free-air deployments do not get the perfect network ``collect_round``
historically assumed: the paper fought defective 8-port switches, and a
tent in a Finnish winter produces flapping links and dropped handshakes
on top.  :class:`LinkFaultPlan` is the deterministic injection seam for
that weather, styled after :class:`repro.runner.faults.FaultPlan`: it
maps ``(host, round, attempt)`` to one :class:`LinkFault`, either from
an explicit schedule or from a seeded :class:`LinkStorm` that draws an
independent per-``(host, round)`` coin.  Everything is a frozen
dataclass over plain values, so plans travel through configs, tests,
and the CLI unchanged.

Actions
-------
``SSH_TIMEOUT``
    The SSH handshake never completes; the attempt observes nothing.
    From the monitoring host's chair this is indistinguishable from a
    down host -- which is exactly the false-positive hazard the
    :mod:`repro.monitoring.health` state machine exists to absorb.
``PARTIAL_TRANSFER``
    The session connects but dies mid-rsync: a prefix of the pending
    payload moves (``fraction`` of the pending bytes, whole records
    only) and the remainder waits as backlog.
``SLOW_SESSION``
    The session completes but takes ``delay_s`` of wall time on the
    monitoring host -- accounted, not simulated, since collection
    rounds are instantaneous in simulated time.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.state.codec import History
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1

#: Fixed per-session cost: TCP + SSH handshake + rsync file-list exchange.
SSH_SESSION_OVERHEAD_BYTES = 4096
#: One md5sum result line: hash (32 hex), path, timestamp.
MD5_LINE_BYTES = 96
#: One serialised sensor sample pulled from lm-sensors output.
SENSOR_SAMPLE_BYTES = 160


@dataclass(frozen=True)
class TransferRecord:
    """One host's transfer within one collection round.

    ``complete`` is ``False`` when the session died mid-rsync and left
    a backlog behind (a ``PARTIAL_TRANSFER`` link fault).
    """

    time: float
    host_id: int
    new_md5_lines: int
    new_sensor_samples: int
    bytes_moved: int
    complete: bool = True

    def __post_init__(self) -> None:
        if min(self.new_md5_lines, self.new_sensor_samples, self.bytes_moved) < 0:
            raise ValueError("transfer counts cannot be negative")


_RECORDS = History(
    TransferRecord,
    [
        ("time", float),
        ("host_id", int),
        ("new_md5_lines", int),
        ("new_sensor_samples", int),
        ("bytes_moved", int),
        ("complete", bool),
    ],
)


class RsyncChannel:
    """Incremental transfer state for one monitored host.

    The channel tracks how much produced data has already been synced;
    :meth:`sync` moves the delta and returns the record.  Failed rounds
    simply never call :meth:`sync`, so backlog accumulates naturally;
    an interrupted session (``max_payload_bytes``) moves a prefix of
    the pending records and the next session carries the rest.
    """

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self._synced_md5_lines = 0
        self._synced_sensor_samples = 0
        self.total_bytes = 0
        self.sessions = 0

    def __repr__(self) -> str:
        return (
            f"RsyncChannel(host {self.host_id}, sessions={self.sessions}, "
            f"{self.total_bytes} B)"
        )

    def pending(self, produced_md5_lines: int, produced_sensor_samples: int) -> int:
        """Bytes a sync right now would move (excluding session overhead)."""
        new_md5 = max(0, produced_md5_lines - self._synced_md5_lines)
        new_sensor = max(0, produced_sensor_samples - self._synced_sensor_samples)
        return new_md5 * MD5_LINE_BYTES + new_sensor * SENSOR_SAMPLE_BYTES

    def sync(
        self,
        time: float,
        produced_md5_lines: int,
        produced_sensor_samples: int,
        max_payload_bytes: Optional[int] = None,
    ) -> TransferRecord:
        """Run one rsync session against the host's current output.

        ``max_payload_bytes`` caps the payload the session manages to
        move before dying (``None`` = the session completes): md5sum
        lines transfer first, then sensor samples, whole records only --
        rsync never leaves half a file behind.  The session overhead is
        paid either way; the backlog stays pending for the next call.
        """
        if produced_md5_lines < self._synced_md5_lines:
            raise ValueError("produced md5 count went backwards")
        if produced_sensor_samples < self._synced_sensor_samples:
            raise ValueError("produced sensor count went backwards")
        new_md5 = produced_md5_lines - self._synced_md5_lines
        new_sensor = produced_sensor_samples - self._synced_sensor_samples
        if max_payload_bytes is None:
            take_md5, take_sensor = new_md5, new_sensor
        else:
            if max_payload_bytes < 0:
                raise ValueError("payload cap cannot be negative")
            budget = max_payload_bytes
            take_md5 = min(new_md5, budget // MD5_LINE_BYTES)
            budget -= take_md5 * MD5_LINE_BYTES
            take_sensor = min(new_sensor, budget // SENSOR_SAMPLE_BYTES)
        payload = take_md5 * MD5_LINE_BYTES + take_sensor * SENSOR_SAMPLE_BYTES
        record = TransferRecord(
            time=time,
            host_id=self.host_id,
            new_md5_lines=take_md5,
            new_sensor_samples=take_sensor,
            bytes_moved=payload + SSH_SESSION_OVERHEAD_BYTES,
            complete=(take_md5 == new_md5 and take_sensor == new_sensor),
        )
        self._synced_md5_lines += take_md5
        self._synced_sensor_samples += take_sensor
        self.total_bytes += record.bytes_moved
        self.sessions += 1
        return record


class TransferLedger:
    """The monitoring host's aggregate rsync traffic.

    Totals are maintained incrementally in :meth:`record_sync`, so
    :attr:`total_bytes` and :meth:`bytes_for_host` stay O(1) however
    long the campaign runs (they used to re-walk every record on each
    call -- O(hosts x rounds) inside analysis loops).
    """

    def __init__(self) -> None:
        self.records: List[TransferRecord] = []
        self._packed_records = _RECORDS.packer()
        self._channels: Dict[int, RsyncChannel] = {}
        self._total_bytes = 0
        self._bytes_by_host: Dict[int, int] = {}
        self.partial_sessions = 0

    def __repr__(self) -> str:
        return f"TransferLedger({len(self.records)} transfers, {self.total_bytes} B)"

    def channel(self, host_id: int) -> RsyncChannel:
        """The per-host channel, created on first use."""
        chan = self._channels.get(host_id)
        if chan is None:
            chan = RsyncChannel(host_id)
            self._channels[host_id] = chan
        return chan

    def record_sync(
        self,
        time: float,
        host_id: int,
        produced_md5_lines: int,
        produced_sensor_samples: int,
        max_payload_bytes: Optional[int] = None,
    ) -> TransferRecord:
        """Sync one host and log the transfer."""
        record = self.channel(host_id).sync(
            time, produced_md5_lines, produced_sensor_samples, max_payload_bytes
        )
        self.records.append(record)
        self._total_bytes += record.bytes_moved
        self._bytes_by_host[host_id] = (
            self._bytes_by_host.get(host_id, 0) + record.bytes_moved
        )
        if not record.complete:
            self.partial_sessions += 1
        return record

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Channel positions, totals, and the packed transfer history."""
        return {
            "version": _STATE_VERSION,
            "partial_sessions": self.partial_sessions,
            "total_bytes": self._total_bytes,
            "bytes_by_host": {
                str(host_id): n for host_id, n in sorted(self._bytes_by_host.items())
            },
            "channels": {
                str(host_id): [
                    chan._synced_md5_lines,
                    chan._synced_sensor_samples,
                    chan.total_bytes,
                    chan.sessions,
                ]
                for host_id, chan in sorted(self._channels.items())
            },
            "records": self._packed_records.pack(self.records),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        with parsing("transfer_ledger"):
            check_version("transfer_ledger", state, _STATE_VERSION)
            partial_sessions = int(state["partial_sessions"])
            total_bytes = int(state["total_bytes"])
            bytes_by_host = {
                int(host_id): int(n) for host_id, n in state["bytes_by_host"].items()
            }
            channels = {}
            for host_id, (md5, samples, total, sessions) in state["channels"].items():
                chan = RsyncChannel(int(host_id))
                chan._synced_md5_lines = int(md5)
                chan._synced_sensor_samples = int(samples)
                chan.total_bytes = int(total)
                chan.sessions = int(sessions)
                channels[int(host_id)] = chan
            records = _RECORDS.restore(state["records"])
        self.partial_sessions = partial_sessions
        self._total_bytes = total_bytes
        self._bytes_by_host = bytes_by_host
        self._channels = channels
        self.records = records

    @property
    def total_bytes(self) -> int:
        """Bytes moved across all hosts and rounds."""
        return self._total_bytes

    @property
    def total_sessions(self) -> int:
        """rsync sessions run (successful host contacts)."""
        return len(self.records)

    def bytes_for_host(self, host_id: int) -> int:
        """Traffic attributable to one host."""
        return self._bytes_by_host.get(host_id, 0)

    def mean_session_bytes(self) -> float:
        """Average transfer size (0 before any session)."""
        if not self.records:
            return 0.0
        return self.total_bytes / len(self.records)


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
class LinkFaultAction(enum.Enum):
    """What a scheduled link fault does to its SSH/rsync session."""

    SSH_TIMEOUT = "ssh-timeout"
    PARTIAL_TRANSFER = "partial"
    SLOW_SESSION = "slow"


@dataclass(frozen=True)
class LinkFault:
    """One scheduled link misbehaviour on one host's channel.

    ``attempts`` widens an ``SSH_TIMEOUT`` to strike the first N SSH
    attempts of the round, so a retrying collector can still be
    defeated on schedule; the other actions ride whichever attempt
    finally connects.  ``fraction`` is the share of pending payload a
    ``PARTIAL_TRANSFER`` manages to move; ``delay_s`` is the wall time
    a ``SLOW_SESSION`` costs the monitoring host.
    """

    host_id: int
    round_index: int
    action: LinkFaultAction
    attempts: int = 1
    fraction: float = 0.5
    delay_s: float = 60.0

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError("rounds are indexed from 0")
        if self.attempts < 1:
            raise ValueError("a fault strikes at least one attempt")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("partial-transfer fraction must be within [0, 1]")
        if self.delay_s < 0:
            raise ValueError("session delay cannot be negative")


@dataclass(frozen=True)
class LinkStorm:
    """A seeded weather front: independent per-(host, round) fault coins.

    Each ``(host, round)`` inside the window draws its own
    deterministic coin -- seeded from ``(seed, host, round)`` alone, so
    whether one host is hit never shifts another host's draw, and a
    replayed campaign replays its exact storm.
    """

    probability: float
    seed: int = 0
    action: LinkFaultAction = LinkFaultAction.SSH_TIMEOUT
    attempts: int = 1
    fraction: float = 0.5
    delay_s: float = 60.0
    first_round: int = 0
    last_round: Optional[int] = None
    host_ids: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("storm probability must be within [0, 1]")
        if self.first_round < 0:
            raise ValueError("rounds are indexed from 0")
        if self.last_round is not None and self.last_round < self.first_round:
            raise ValueError("storm window ends before it starts")
        if self.attempts < 1:
            raise ValueError("a fault strikes at least one attempt")

    def fault_for(self, host_id: int, round_index: int) -> Optional[LinkFault]:
        """The storm's fault for this (host, round), if the coin lands."""
        if round_index < self.first_round:
            return None
        if self.last_round is not None and round_index > self.last_round:
            return None
        if self.host_ids is not None and host_id not in self.host_ids:
            return None
        rng = random.Random(f"repro.linkstorm:{self.seed}:{host_id}:{round_index}")
        if rng.random() >= self.probability:
            return None
        return LinkFault(
            host_id=host_id,
            round_index=round_index,
            action=self.action,
            attempts=self.attempts,
            fraction=self.fraction,
            delay_s=self.delay_s,
        )


@dataclass(frozen=True)
class LinkFaultPlan:
    """The full link-fault schedule for one campaign.

    Explicit :class:`LinkFault` entries win over the :class:`LinkStorm`
    background, mirroring :class:`repro.runner.faults.FaultPlan`.
    """

    faults: Tuple[LinkFault, ...] = ()
    storm: Optional[LinkStorm] = None

    @classmethod
    def of(cls, *faults: LinkFault) -> "LinkFaultPlan":
        """A plan from positional faults."""
        return cls(faults=tuple(faults))

    def __bool__(self) -> bool:
        return bool(self.faults) or self.storm is not None

    def lookup(
        self, host_id: int, round_index: int, attempt: int
    ) -> Optional[LinkFault]:
        """The fault striking this (host, round, attempt), if any."""
        for fault in self.faults:
            if (
                fault.host_id == host_id
                and fault.round_index == round_index
                and attempt <= fault.attempts
            ):
                return fault
        if self.storm is not None:
            fault = self.storm.fault_for(host_id, round_index)
            if fault is not None and attempt <= fault.attempts:
                return fault
        return None

    @classmethod
    def parse(cls, text: str) -> "LinkFaultPlan":
        """Build a plan from the CLI's ``--link-faults`` grammar.

        Comma-separated clauses; each is either a storm::

            storm:PROBABILITY[:key=value...]

        with keys ``seed``, ``attempts``, ``action``, ``fraction``,
        ``delay``, ``from``, ``to`` (round window) -- or one explicit
        fault::

            HOST:ROUND:ACTION[:key=value...]

        with ``action`` one of ``ssh-timeout``, ``partial``, ``slow``.
        Example: ``storm:0.25:seed=3:attempts=2,5:12:partial:fraction=0.3``.
        """
        faults: List[LinkFault] = []
        storm: Optional[LinkStorm] = None
        for clause in filter(None, (part.strip() for part in text.split(","))):
            head, *rest = clause.split(":")
            if head == "storm":
                if not rest:
                    raise ValueError("storm clause needs a probability")
                kwargs = _parse_fault_keys(
                    rest[1:], clause,
                    allowed=("seed", "attempts", "action", "fraction", "delay", "from", "to"),
                )
                if storm is not None:
                    raise ValueError("only one storm clause is allowed")
                storm = LinkStorm(probability=_parse_float(rest[0], clause), **kwargs)
            else:
                if len(rest) < 2:
                    raise ValueError(
                        f"expected HOST:ROUND:ACTION in link-fault clause {clause!r}"
                    )
                kwargs = _parse_fault_keys(
                    rest[2:], clause, allowed=("attempts", "fraction", "delay")
                )
                faults.append(
                    LinkFault(
                        host_id=_parse_int(head, clause),
                        round_index=_parse_int(rest[0], clause),
                        action=_parse_action(rest[1], clause),
                        **kwargs,
                    )
                )
        return cls(faults=tuple(faults), storm=storm)


def _parse_action(text: str, clause: str) -> LinkFaultAction:
    for action in LinkFaultAction:
        if action.value == text:
            return action
    names = ", ".join(a.value for a in LinkFaultAction)
    raise ValueError(f"unknown link-fault action {text!r} in {clause!r} (use {names})")


def _parse_int(text: str, clause: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r} in {clause!r}") from None


def _parse_float(text: str, clause: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r} in {clause!r}") from None


_FAULT_KEYS = {
    "seed": ("seed", _parse_int),
    "attempts": ("attempts", _parse_int),
    "action": ("action", _parse_action),
    "fraction": ("fraction", _parse_float),
    "delay": ("delay_s", _parse_float),
    "from": ("first_round", _parse_int),
    "to": ("last_round", _parse_int),
}


def _parse_fault_keys(parts, clause: str, allowed) -> dict:
    kwargs: dict = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep or key not in allowed:
            raise ValueError(
                f"bad link-fault option {part!r} in {clause!r} (use key=value "
                f"with keys {', '.join(allowed)})"
            )
        name, parse = _FAULT_KEYS[key]
        kwargs[name] = parse(value, clause)
    return kwargs
