"""Fault models: the stochastic machinery behind the failure census.

Every fault family in the paper gets a hazard-rate model:

- :class:`TransientFaultModel` -- whole-system transient failures (host #15
  suffered two).  The rate has a per-host *frailty* multiplier, so a
  known-bad series (vendor B) concentrates its failures on one or two
  lemons rather than spreading them uniformly -- exactly the census shape
  the paper reports (one bad host, its twin and the rest clean).
- :class:`MemoryFaultModel` -- parameters for page-op bit flips (the
  mechanics live in :class:`repro.hardware.components.MemoryBank`).
- :func:`hazard_probability` -- the shared exponential-hazard arithmetic,
  and :class:`HazardMemo`, which keeps its last answer for the components
  that ask for the same nominal rate every tick.

Temperature dependence follows the classic 10-degree doubling rule above a
reference case temperature, and -- deliberately -- *no* cold penalty: the
paper's central finding is that sub-zero intake air is "not a certified
cause for server failures".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.sim.events import EventBus, HostFailed, SwitchDied, WrongHash
from repro.state.protocol import check_version

_STATE_VERSION = 1


def hazard_probability(rate_per_hour: float, dt_s: float) -> float:
    """Probability of at least one event in ``dt_s`` at ``rate_per_hour``."""
    if rate_per_hour < 0:
        raise ValueError("hazard rate cannot be negative")
    if dt_s < 0:
        raise ValueError("dt cannot be negative")
    return 1.0 - math.exp(-rate_per_hour * dt_s / 3600.0)


class HazardMemo:
    """:func:`hazard_probability` that keeps its last ``(rate, dt) -> p``.

    A drive, a host, a sensor chip or a switch asks for the same nominal
    rate over the same tick almost every time; the rate moves only when a
    case runs hot, a model is swapped or a restore changes a frailty or a
    switch's rate.  The memo is keyed on the two values themselves, so any
    such change is a fresh computation.
    """

    __slots__ = ("_rate", "_dt_s", "_p")

    def __init__(self) -> None:
        self._rate: Optional[float] = None
        self._dt_s: Optional[float] = None
        self._p = 0.0

    def probability(self, rate_per_hour: float, dt_s: float) -> float:
        """``hazard_probability(rate_per_hour, dt_s)``, reusing the last answer."""
        if rate_per_hour == self._rate and dt_s == self._dt_s:
            return self._p
        p = hazard_probability(rate_per_hour, dt_s)
        self._rate, self._dt_s, self._p = rate_per_hour, dt_s, p
        return p


class FaultKind(enum.Enum):
    """Categories used by the census (Section 4.2)."""

    TRANSIENT_SYSTEM = "transient system failure"
    SENSOR_CHIP = "sensor chip malfunction"
    WRONG_HASH = "wrong md5sum hash"
    DISK = "disk failure"
    SWITCH = "network switch failure"
    MEMTEST = "memtest failure"
    WATER_INGRESS = "water ingress short circuit"


@dataclass(frozen=True)
class FaultEvent:
    """One entry in a host's (or the experiment's) fault log."""

    time: float
    kind: FaultKind
    host_id: Optional[int]
    detail: str = ""

    def __str__(self) -> str:
        where = f"host #{self.host_id:02d}" if self.host_id is not None else "infrastructure"
        return f"[{self.time:>12.0f}s] {where}: {self.kind.value} {self.detail}".rstrip()


@dataclass
class TransientFaultModel:
    """Hazard model for whole-system transient failures.

    Parameters
    ----------
    base_rate_per_hour:
        Healthy-population rate (very low: commodity hosts run months
        without a hang).
    defective_rate_per_hour:
        Rate for the known-unreliable series before frailty scaling.
    frailty_sigma:
        Log-normal sigma of the per-host frailty multiplier.  Large sigma
        concentrates failures on a few lemons.
    temp_reference_c / temp_doubling_c:
        Above the reference case temperature the rate doubles every
        ``temp_doubling_c`` degrees (bad airflow killing SFF boxes).
    cold_multiplier:
        Rate multiplier for sub-zero intake.  The paper found none, so the
        default is 1.0; the ablation benchmarks sweep it.
    """

    base_rate_per_hour: float = 1.0 / (24.0 * 2000.0)
    defective_rate_per_hour: float = 1.0 / (24.0 * 80.0)
    frailty_sigma: float = 1.1
    temp_reference_c: float = 40.0
    temp_doubling_c: float = 10.0
    cold_multiplier: float = 1.0

    def draw_frailty(self, rng: np.random.Generator) -> float:
        """Per-host lemon factor: log-normal with median 1."""
        return float(rng.lognormal(mean=0.0, sigma=self.frailty_sigma))

    def rate_per_hour(
        self, defective_series: bool, frailty: float, case_temp_c: float, intake_temp_c: float
    ) -> float:
        """Instantaneous hazard for one host."""
        rate = self.defective_rate_per_hour if defective_series else self.base_rate_per_hour
        rate *= frailty
        if case_temp_c > self.temp_reference_c:
            rate *= 2.0 ** ((case_temp_c - self.temp_reference_c) / self.temp_doubling_c)
        if intake_temp_c < 0.0:
            rate *= self.cold_multiplier
        return rate


@dataclass(frozen=True)
class MemoryFaultModel:
    """Parameters for memory bit flips.

    ``page_fault_ratio`` is the per-page-operation fault probability for
    banks without error-correcting parity; the paper's estimate is one in
    570 million.  ECC banks log but correct.
    """

    page_fault_ratio: float = 1.0 / 570e6

    def __post_init__(self) -> None:
        if not 0.0 <= self.page_fault_ratio < 1.0:
            raise ValueError("page_fault_ratio must be in [0, 1)")


@dataclass
class FaultLog:
    """Append-only fault census shared across the experiment.

    In a bus-wired campaign the log is a *subscriber*: producers publish
    :class:`~repro.sim.events.HostFailed`,
    :class:`~repro.sim.events.WrongHash`, and
    :class:`~repro.sim.events.SwitchDied` events, and :meth:`attach_bus`
    converts each into the :class:`FaultEvent` the census runs on.
    Components built without a bus keep calling :meth:`record` directly.
    """

    events: List[FaultEvent] = field(default_factory=list)

    def record(self, event: FaultEvent) -> None:
        """Append ``event`` (times must be non-decreasing per producer)."""
        self.events.append(event)

    # ------------------------------------------------------------------
    # Event-bus subscription
    # ------------------------------------------------------------------
    def attach_bus(self, bus: EventBus) -> None:
        """Subscribe to the fault-bearing event types on ``bus``."""
        bus.subscribe(HostFailed, self._on_host_failed)
        bus.subscribe(WrongHash, self._on_wrong_hash)
        bus.subscribe(SwitchDied, self._on_switch_died)

    def _on_host_failed(self, event: HostFailed) -> None:
        self.record(
            FaultEvent(
                time=event.time,
                kind=event.kind,
                host_id=event.host_id,
                detail=event.detail,
            )
        )

    def _on_wrong_hash(self, event: WrongHash) -> None:
        self.record(
            FaultEvent(
                time=event.time,
                kind=FaultKind.WRONG_HASH,
                host_id=event.host_id,
                detail=f"{event.corrupted_blocks} corrupted block(s)",
            )
        )

    def _on_switch_died(self, event: SwitchDied) -> None:
        self.record(
            FaultEvent(
                time=event.time,
                kind=FaultKind.SWITCH,
                host_id=None,
                detail=event.switch_name,
            )
        )

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": _STATE_VERSION,
            "events": [
                [e.time, e.kind.name, e.host_id, e.detail] for e in self.events
            ],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        check_version("fault_log", state, _STATE_VERSION)
        self.events = [
            FaultEvent(
                time=float(t),
                kind=FaultKind[k],
                host_id=None if h is None else int(h),
                detail=str(d),
            )
            for t, k, h, d in state["events"]
        ]

    def of_kind(self, kind: FaultKind) -> List[FaultEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind is kind]

    def for_host(self, host_id: int) -> List[FaultEvent]:
        """All events attributed to one host."""
        return [e for e in self.events if e.host_id == host_id]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
