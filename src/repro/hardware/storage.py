"""Disks and RAID layouts.

Section 3.4: vendor A pairs two drives in a Linux md software mirror,
vendor B fits a single drive, vendor C runs five -- a hardware mirror for
the system plus a three-drive stripe set with parity.  The arrays matter to
the reproduction because they determine when a disk fault becomes a *host*
fault: a mirror absorbs one loss, the parity stripe absorbs one of three,
the lone SFF drive absorbs nothing.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.hardware.faults import HazardMemo
from repro.hardware.smart import ATTR_POWER_ON_HOURS, ATTR_TEMPERATURE, SmartTable
from repro.hardware.vendors import DiskLayout, VendorSpec
from repro.sim.rng import UniformSource
from repro.state.protocol import StateError, check_version, parsing

_STATE_VERSION = 1


def _heat_factor(case_temp_c: float) -> float:
    """Drive hazard multiplier: doubling every 15 degC above 45 degC case air."""
    if case_temp_c > 45.0:
        return 2.0 ** ((case_temp_c - 45.0) / 15.0)
    return 1.0


class DiskState(enum.Enum):
    """Health of a physical drive."""

    HEALTHY = "healthy"
    FAILED = "failed"


class Disk:
    """One physical hard drive with a S.M.A.R.T. table.

    The owning :class:`StorageSubsystem` ticks it: each healthy tick
    accrues S.M.A.R.T. uptime and temperature and rolls one failure draw
    from the host's storage stream.

    Parameters
    ----------
    serial:
        Drive identifier, e.g. ``"host03-sda"``.
    mtbf_hours:
        Mean time between failures while spinning.  Commodity drives of
        the era quoted ~500k hours; the census expects few or no disk
        losses over a three-month campaign, matching the paper.
    """

    def __init__(self, serial: str, mtbf_hours: float = 500_000.0) -> None:
        if mtbf_hours <= 0:
            raise ValueError("MTBF must be positive")
        self.serial = serial
        self.state = DiskState.HEALTHY
        self.smart = SmartTable()
        self.failed_at: Optional[float] = None
        self._rate_per_hour = 1.0 / mtbf_hours

    def __repr__(self) -> str:
        return f"Disk({self.serial!r}, {self.state.value})"

    @property
    def healthy(self) -> bool:
        """Whether the drive still responds."""
        return self.state is DiskState.HEALTHY

    def fail(self, time: float) -> None:
        """Hard-fail the drive."""
        self.state = DiskState.FAILED
        self.failed_at = time

    def run_long_self_test(self, time: float):
        """S.M.A.R.T. long self-test (passes while the media is healthy)."""
        return self.smart.run_long_self_test(time, media_healthy=self.healthy)

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": _STATE_VERSION,
            "state": self.state.value,
            "failed_at": self.failed_at,
            "smart": self.smart.state_dict(),
        }

    def parse_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """Parse a blob into the call that assigns it, or raise :class:`StateError`."""
        with parsing(f"disk.{self.serial}"):
            check_version(f"disk.{self.serial}", state, _STATE_VERSION)
            disk_state = DiskState(state["state"])
            failed_at = state["failed_at"]
            failed_at = None if failed_at is None else float(failed_at)
            load_smart = self.smart.parse_state(state["smart"])

        def load() -> None:
            self.state = disk_state
            self.failed_at = failed_at
            load_smart()

        return load


class RaidArray(abc.ABC):
    """A set of member drives with a redundancy rule."""

    def __init__(self, name: str, members: Sequence[Disk]) -> None:
        if len(members) < self.min_members():
            raise ValueError(
                f"{type(self).__name__} needs >= {self.min_members()} members, "
                f"got {len(members)}"
            )
        self.name = name
        self.members: List[Disk] = list(members)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.status()})"

    @classmethod
    @abc.abstractmethod
    def min_members(cls) -> int:
        """Fewest drives the layout accepts."""

    @abc.abstractmethod
    def max_tolerated_failures(self) -> int:
        """Drive losses the array survives."""

    @property
    def failed_members(self) -> int:
        """Count of dead member drives."""
        return sum(1 for d in self.members if not d.healthy)

    @property
    def operational(self) -> bool:
        """Whether the array still serves data."""
        return self.failed_members <= self.max_tolerated_failures()

    @property
    def degraded(self) -> bool:
        """Operational but with reduced redundancy."""
        return self.operational and self.failed_members > 0

    def status(self) -> str:
        """Human-readable state: ``optimal`` / ``degraded`` / ``failed``."""
        if not self.operational:
            return "failed"
        return "degraded" if self.degraded else "optimal"


class MdSoftwareMirror(RaidArray):
    """Linux multiple-devices (md) two-way software mirror (vendor A)."""

    @classmethod
    def min_members(cls) -> int:
        return 2

    def max_tolerated_failures(self) -> int:
        return len(self.members) - 1


class HardwareMirror(RaidArray):
    """Controller-managed two-way mirror (vendor C system volume)."""

    @classmethod
    def min_members(cls) -> int:
        return 2

    def max_tolerated_failures(self) -> int:
        return len(self.members) - 1


class StripeWithParity(RaidArray):
    """Three-drive stripe set with parity (vendor C data volume)."""

    @classmethod
    def min_members(cls) -> int:
        return 3

    def max_tolerated_failures(self) -> int:
        return 1


class SingleDisk(RaidArray):
    """Degenerate "array": the lone SFF drive; any loss is fatal."""

    @classmethod
    def min_members(cls) -> int:
        return 1

    def max_tolerated_failures(self) -> int:
        return 0


class StorageSubsystem:
    """A host's full storage stack, built from its vendor's layout.

    Exposes the aggregate questions the host asks: is storage still
    operational, did every drive pass its long self-test, and the ticking
    of member drives.
    """

    def __init__(self, host_label: str, spec: VendorSpec, rng: UniformSource) -> None:
        self.spec = spec
        self.disks: List[Disk] = [
            Disk(f"{host_label}-sd{chr(ord('a') + i)}")
            for i in range(spec.disk_layout.disk_count)
        ]
        self.arrays: List[RaidArray] = self._build_arrays(host_label)
        self._rng = rng
        self._hazard = HazardMemo()
        # Each drive with the two S.M.A.R.T. rows a tick writes (a restore
        # assigns into the same row objects).
        self._tick_rows = [
            (
                disk,
                disk.smart.attribute(ATTR_POWER_ON_HOURS),
                disk.smart.attribute(ATTR_TEMPERATURE),
            )
            for disk in self.disks
        ]

    def _build_arrays(self, host_label: str) -> List[RaidArray]:
        layout = self.spec.disk_layout
        if layout is DiskLayout.MD_SOFTWARE_MIRROR:
            return [MdSoftwareMirror(f"{host_label}-md0", self.disks)]
        if layout is DiskLayout.SINGLE_DISK:
            return [SingleDisk(f"{host_label}-sda", self.disks)]
        if layout is DiskLayout.MIRROR_PLUS_RAID5:
            return [
                HardwareMirror(f"{host_label}-sys", self.disks[:2]),
                StripeWithParity(f"{host_label}-data", self.disks[2:]),
            ]
        raise AssertionError(f"unhandled layout {layout}")  # pragma: no cover

    def __repr__(self) -> str:
        states = ", ".join(a.status() for a in self.arrays)
        return f"StorageSubsystem({len(self.disks)} disks; {states})"

    @property
    def operational(self) -> bool:
        """All arrays still serving data."""
        return all(a.operational for a in self.arrays)

    @property
    def degraded(self) -> bool:
        """Any array running without full redundancy."""
        return any(a.degraded for a in self.arrays)

    def tick(self, dt_s: float, case_temp_c: float, time: float) -> bool:
        """Advance ``dt_s`` seconds of running time on every healthy drive.

        Each healthy drive, in member order, accrues S.M.A.R.T. power-on
        hours, reads its temperature (drives run 4 degC above the case
        air), then makes one scalar draw against its failure probability:
        its base rate with a mild heat penalty (doubling every 15 degC of
        case air above 45 degC).  All drives share the host's case air, so
        the probability is computed once per tick, and again only for a
        drive whose base rate differs, through a :class:`HazardMemo` that
        answers again without arithmetic while the case stays cool.  A
        failed drive neither ages nor draws.

        Returns whether any drive is not healthy after the tick (failed
        now or before), the only case in which :attr:`operational` can be
        false.
        """
        heat = _heat_factor(case_temp_c)
        hours = dt_s / 3600.0
        drive_temp = case_temp_c + 4.0
        rng = self._rng
        rate = p_fail = None
        lost = False
        for disk, power_on, temperature in self._tick_rows:
            if disk.state is DiskState.HEALTHY:
                if disk._rate_per_hour != rate:
                    rate = disk._rate_per_hour
                    p_fail = self._hazard.probability(rate * heat, dt_s)
                power_on.raw += hours
                temperature.raw = drive_temp
                if rng.random() < p_fail:
                    disk.fail(time)
                    lost = True
            else:
                lost = True
        return lost

    def run_long_self_tests(self, time: float) -> bool:
        """Run the long test on every drive; True iff all pass."""
        return all(d.run_long_self_test(time).passed for d in self.disks)

    def record_power_cycle(self) -> None:
        """Note a host power cycle on every drive."""
        for disk in self.disks:
            disk.smart.record_power_cycle()

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Per-disk state in member order (layouts are config-fixed)."""
        return {
            "version": _STATE_VERSION,
            "disks": [d.state_dict() for d in self.disks],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.parse_state(state)()

    def parse_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """Parse a blob into the call that assigns it, or raise :class:`StateError`."""
        with parsing("storage"):
            check_version("storage", state, _STATE_VERSION)
            if len(state["disks"]) != len(self.disks):
                raise StateError(
                    f"storage: snapshot has {len(state['disks'])} disks, "
                    f"this subsystem has {len(self.disks)}"
                )
            loads = [
                disk.parse_state(disk_state)
                for disk, disk_state in zip(self.disks, state["disks"])
            ]

        def load() -> None:
            for load_disk in loads:
                load_disk()

        return load
