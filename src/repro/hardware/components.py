"""Host components: CPU, memory bank, power supply.

Only the behaviour the paper's fault census exercises is modelled:

- the CPU contributes power and a temperature (the quantity lm-sensors logs
  and the one that reached -4 degC in the tent),
- the memory bank turns page operations into occasional bit flips -- the
  root cause the paper conjectures for its five wrong md5sums -- unless it
  has error-correcting parity,
- the power supply converts load into heat dissipated inside the enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.hardware.vendors import VendorSpec
from repro.state.codec import History
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1

#: The paper's estimated memory fault ratio: "around one in 570 million"
#: page operations (Section 4.2.2).
PAPER_PAGE_FAULT_RATIO = 1.0 / 570e6


class Cpu:
    """CPU package: a power draw and a temperature.

    The temperature model is the stacked-rise form used throughout the
    reproduction: intake air + case rise + package rise, each proportional
    to the relevant power.
    """

    def __init__(self, spec: VendorSpec) -> None:
        self.spec = spec
        self.busy = False

    def __repr__(self) -> str:
        state = "busy" if self.busy else "idle"
        return f"Cpu(vendor={self.spec.vendor_id}, {state})"

    @property
    def power_w(self) -> float:
        """Current package power draw."""
        return self.spec.cpu_active_power_w if self.busy else self.spec.cpu_idle_power_w

    def temperature_c(self, intake_c: float, host_power_w: float) -> float:
        """Die temperature given intake air and total host power."""
        return self.spec.cpu_temp_c(intake_c, host_power_w, self.power_w)


@dataclass
class MemoryFaultRecord:
    """One uncorrected (or, on ECC machines, corrected) memory fault."""

    time: float
    page_index: int
    corrected: bool


_FAULTS = History(
    MemoryFaultRecord, [("time", float), ("page_index", int), ("corrected", bool)]
)


class MemoryBank:
    """Installed RAM: page-operation accounting and bit-flip faults.

    Parameters
    ----------
    spec:
        The vendor spec (size and ECC flag).
    rng:
        Fault draw stream for this bank.
    fault_ratio:
        Probability of a fault per page operation.  Defaults to the paper's
        estimate of one in 570 million.
    """

    def __init__(
        self,
        spec: VendorSpec,
        rng: np.random.Generator,
        fault_ratio: float = PAPER_PAGE_FAULT_RATIO,
    ) -> None:
        if fault_ratio < 0 or fault_ratio >= 1:
            raise ValueError("fault_ratio must be in [0, 1)")
        self.spec = spec
        self.fault_ratio = fault_ratio
        self._rng = rng
        self.page_ops_total = 0
        self.faults = _FAULTS.store()  # MemoryFaultRecord rows

    def __repr__(self) -> str:
        ecc = "ECC" if self.spec.ecc_memory else "non-ECC"
        return (
            f"MemoryBank({self.spec.memory_mib} MiB {ecc}, "
            f"{self.page_ops_total} page ops, {len(self.faults)} faults)"
        )

    def perform_page_ops(self, count: int, time: float) -> int:
        """Account ``count`` page operations at ``time``.

        Returns the number of *uncorrected* faults incurred.  ECC banks
        still record faults (as corrected) so the ablation benchmark can
        compare; non-ECC banks return them to the caller, which propagates
        the corruption into the archive block being processed.
        """
        if count < 0:
            raise ValueError("page-op count cannot be negative")
        self.page_ops_total += count
        if count == 0 or self.fault_ratio == 0.0:
            return 0
        n_faults = int(self._rng.binomial(count, self.fault_ratio))
        if n_faults == 0:
            return 0
        corrected = self.spec.ecc_memory
        for _ in range(n_faults):
            page = int(self._rng.integers(0, max(1, count)))
            self.faults.append(time, page, corrected)
        return 0 if corrected else n_faults

    @property
    def uncorrected_fault_count(self) -> int:
        """Faults that escaped into data."""
        return len(self.faults) - self.corrected_fault_count

    @property
    def corrected_fault_count(self) -> int:
        """Faults the ECC machinery absorbed."""
        return int(np.count_nonzero(self.faults.column("corrected")))

    def observed_fault_ratio(self) -> Optional[float]:
        """Empirical faults-per-page-op, or ``None`` before any ops."""
        if self.page_ops_total == 0:
            return None
        return len(self.faults) / self.page_ops_total

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": _STATE_VERSION,
            "page_ops_total": self.page_ops_total,
            "faults": self.faults.capture(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.parse_state(state)()

    def parse_state(self, state: Dict[str, Any]) -> Callable[[], None]:
        """Parse a blob into the call that assigns it, or raise :class:`StateError`."""
        with parsing("memory"):
            check_version("memory", state, _STATE_VERSION)
            page_ops_total = int(state["page_ops_total"])
            faults = _FAULTS.restore(state["faults"])

        def load() -> None:
            self.page_ops_total = page_ops_total
            self.faults = faults

        return load


@dataclass(frozen=True)
class PowerSupply:
    """PSU: turns DC load into wall draw; all of it ends up as heat.

    ``efficiency`` is the DC/AC ratio; the heat an enclosure receives is
    the full wall draw (conversion loss included), which is why the tent's
    heat balance uses wall watts directly.
    """

    rated_w: float = 300.0
    efficiency: float = 0.82

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.rated_w <= 0:
            raise ValueError("rated power must be positive")

    def wall_power_w(self, dc_load_w: float) -> float:
        """AC draw needed to supply ``dc_load_w`` downstream."""
        if dc_load_w < 0:
            raise ValueError("load cannot be negative")
        return dc_load_w / self.efficiency
