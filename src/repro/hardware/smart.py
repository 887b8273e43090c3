"""S.M.A.R.T. attribute tables and self-tests.

Both the prototype test and the main campaign watched hard-drive
S.M.A.R.T. readings, and Section 4.2.2 notes that after the wrong-hash
incidents "the hard drives have passed their S.M.A.R.T. long test runs" --
evidence pointing at memory, not storage.  The table here models the
handful of attributes that analysis consumes: temperature, power-on hours,
reallocated sectors, and the long self-test verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1

# Canonical attribute ids (subset of the ATA standard set).
ATTR_REALLOCATED_SECTORS = 5
ATTR_POWER_ON_HOURS = 9
ATTR_POWER_CYCLES = 12
ATTR_TEMPERATURE = 194
ATTR_PENDING_SECTORS = 197


@dataclass
class SmartAttribute:
    """One S.M.A.R.T. attribute row.

    ``value`` is the normalised health value (bigger is better, fails at
    ``threshold``); ``raw`` is the vendor raw counter the analysis reads.
    """

    attr_id: int
    name: str
    value: int = 100
    worst: int = 100
    threshold: int = 0
    raw: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 255:
            raise ValueError("normalised value must be in [0, 255]")

    @property
    def failing(self) -> bool:
        """True when the normalised value has crossed the threshold."""
        return self.threshold > 0 and self.value <= self.threshold


@dataclass(frozen=True)
class SelfTestResult:
    """Outcome of a S.M.A.R.T. long self-test."""

    time: float
    passed: bool
    detail: str = ""


class SmartTable:
    """The attribute table of one drive.

    The owning drive's :meth:`~repro.hardware.storage.StorageSubsystem.tick`
    advances it: power-on hours accrue with uptime, temperature tracks case
    air; reallocations accrue with media wear events.
    """

    def __init__(self) -> None:
        self._attrs: Dict[int, SmartAttribute] = {}
        for attr_id, name in (
            (ATTR_REALLOCATED_SECTORS, "Reallocated_Sector_Ct"),
            (ATTR_POWER_ON_HOURS, "Power_On_Hours"),
            (ATTR_POWER_CYCLES, "Power_Cycle_Count"),
            (ATTR_TEMPERATURE, "Temperature_Celsius"),
            (ATTR_PENDING_SECTORS, "Current_Pending_Sector"),
        ):
            threshold = 36 if attr_id == ATTR_REALLOCATED_SECTORS else 0
            self._attrs[attr_id] = SmartAttribute(attr_id, name, threshold=threshold)
        self.self_tests: List[SelfTestResult] = []

    def __repr__(self) -> str:
        hours = self.attribute(ATTR_POWER_ON_HOURS).raw
        return f"SmartTable(power_on={hours:.0f}h, attrs={len(self._attrs)})"

    def attribute(self, attr_id: int) -> SmartAttribute:
        """Fetch one attribute row."""
        try:
            return self._attrs[attr_id]
        except KeyError:
            raise KeyError(f"no S.M.A.R.T. attribute {attr_id}") from None

    def attributes(self) -> List[SmartAttribute]:
        """All rows, ordered by id (smartctl-style listing)."""
        return [self._attrs[k] for k in sorted(self._attrs)]

    # ------------------------------------------------------------------
    # Updates driven by the owning disk
    # ------------------------------------------------------------------
    def accrue_uptime(self, dt_s: float) -> None:
        """Add running time to the power-on-hours counter."""
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        self._attrs[ATTR_POWER_ON_HOURS].raw += dt_s / 3600.0

    def record_power_cycle(self) -> None:
        """Count one spin-up (reboot or replacement)."""
        self._attrs[ATTR_POWER_CYCLES].raw += 1

    def set_temperature(self, temp_c: float) -> None:
        """Update the drive temperature attribute."""
        self._attrs[ATTR_TEMPERATURE].raw = temp_c

    def add_reallocated_sectors(self, count: int) -> None:
        """Media wear: reallocations reduce the normalised health value."""
        if count < 0:
            raise ValueError("sector count cannot be negative")
        attr = self._attrs[ATTR_REALLOCATED_SECTORS]
        attr.raw += count
        # Vendor curves vary; one point of normalised health per 20 sectors
        # is a common shape.
        attr.value = max(1, 100 - int(attr.raw // 20))
        attr.worst = min(attr.worst, attr.value)

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Mutable attribute rows and the self-test history."""
        return {
            "version": _STATE_VERSION,
            "attrs": {
                str(a.attr_id): [a.value, a.worst, a.raw] for a in self.attributes()
            },
            "self_tests": [[r.time, r.passed, r.detail] for r in self.self_tests],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.parse_state(state)()

    def parse_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """Parse a blob into the call that assigns it, or raise :class:`StateError`."""
        with parsing("smart"):
            check_version("smart", state, _STATE_VERSION)
            rows = [
                (self._attrs[int(attr_id)], int(value), int(worst), float(raw))
                for attr_id, (value, worst, raw) in state["attrs"].items()
            ]
            self_tests = [
                SelfTestResult(time=float(t), passed=bool(p), detail=str(d))
                for t, p, d in state["self_tests"]
            ]

        def load() -> None:
            for attr, value, worst, raw in rows:
                attr.value = value
                attr.worst = worst
                attr.raw = raw
            self.self_tests = self_tests

        return load

    # ------------------------------------------------------------------
    def run_long_self_test(self, time: float, media_healthy: bool) -> SelfTestResult:
        """Run a long self-test; passes iff the media is healthy.

        In the paper every drive involved in a wrong-hash incident passed,
        which is what implicated the (non-ECC) memory instead.
        """
        result = SelfTestResult(
            time=time,
            passed=media_healthy and not self.attribute(ATTR_REALLOCATED_SECTORS).failing,
            detail="completed without error" if media_healthy else "read failure",
        )
        self.self_tests.append(result)
        return result
