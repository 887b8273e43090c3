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

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.hardware.vendors import VendorSpec
from repro.sim.rng import Uniforms
from repro.state.codec import History
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1

#: The paper's estimated memory fault ratio: "around one in 570 million"
#: page operations (Section 4.2.2).
PAPER_PAGE_FAULT_RATIO = 1.0 / 570e6


class Cpu:
    """CPU package: whether it is busy.

    Its power draw and die temperature follow from ``busy`` and the spec;
    :meth:`VendorSpec.cpu_temp_c` holds the stacked-rise model (intake air
    + case rise + package rise, each proportional to the relevant power),
    and ``Host`` evaluates it.
    """

    def __init__(self, spec: VendorSpec) -> None:
        self.spec = spec
        self.busy = False

    def __repr__(self) -> str:
        state = "busy" if self.busy else "idle"
        return f"Cpu(vendor={self.spec.vendor_id}, {state})"


def _quiet_below(count: int, p: float) -> float:
    """Served doubles at or below this make ``binomial(count, p)`` return 0.

    In numpy's inversion regime (``p <= 0.5`` and ``count * p <= 30``)
    ``Generator.binomial`` draws one double ``U`` and returns 0 when
    ``U <= (1 - p) ** count``, computed as ``exp(count * log(1 - p))``.
    The bound sits a relative 1e-9 below that, so a last-bit difference
    between this ``math`` and numpy's C library cannot flip the answer: a
    double in the sliver between goes to ``binomial`` itself.  Outside
    the regime (BTPE draws several doubles) the bound is -1, below every
    double.
    """
    if p <= 0.5 and p * count <= 30.0:
        return math.exp(count * math.log(1.0 - p)) * (1.0 - 1e-9)
    return -1.0


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
        Fault draw stream for this bank, served (a host passes
        ``streams.uniforms("memory")``) or raw (a standalone bank serves it
        itself).  No other code may draw from it.
    fault_ratio:
        Probability of a fault per page operation.  Defaults to the paper's
        estimate of one in 570 million.
    """

    def __init__(
        self,
        spec: VendorSpec,
        rng: Union[np.random.Generator, Uniforms],
        fault_ratio: float = PAPER_PAGE_FAULT_RATIO,
    ) -> None:
        if fault_ratio < 0 or fault_ratio >= 1:
            raise ValueError("fault_ratio must be in [0, 1)")
        self.spec = spec
        self.fault_ratio = fault_ratio
        self._rng = rng if isinstance(rng, Uniforms) else Uniforms(rng)
        #: ``(count, fault_ratio)`` of the last quiet-draw bound computed.
        self._quiet_key: Optional[tuple] = None
        self._quiet_bound = -1.0
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

        The draws are those of ``rng.binomial(count, fault_ratio)`` and,
        per fault, ``rng.integers(0, count)`` on the raw stream.  Almost
        every call draws no fault, so the bank first reads the one served
        double that ``binomial`` would consume (:func:`_quiet_below`) and
        returns 0 when it is below the quiet bound; otherwise it gives the
        double back and calls ``binomial`` on the generator.
        """
        if count < 0:
            raise ValueError("page-op count cannot be negative")
        self.page_ops_total += count
        p = self.fault_ratio
        if count == 0 or p == 0.0:
            return 0
        coins = self._rng
        if self._quiet_key != (count, p):
            self._quiet_key = (count, p)
            self._quiet_bound = _quiet_below(count, p)
        if coins.random() <= self._quiet_bound:
            return 0
        coins.give_back()
        rng = coins.generator()
        n_faults = int(rng.binomial(count, p))
        if n_faults == 0:
            return 0
        corrected = self.spec.ecc_memory
        for _ in range(n_faults):
            page = int(rng.integers(0, max(1, count)))
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
