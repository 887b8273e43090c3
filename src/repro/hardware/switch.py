"""The tent's 8-port network switches.

Section 4.2.1: "we employed two 8-port network switches known to contain
cosmetic errors, i.e., an annoying whining sound during normal operation.
Both of the switches encountered a failure after a week or so of tent
operation.  After some testing, the remaining switch that had never been
used for this test manifested an identical failure state.  We can
therefore conclude that the problem is inherent in these individual
switches and existed even before we began our test."

The model: a switch with the inherent defect fails after an exponential
powered-on time with a mean of about a week *wherever it runs* -- the
bench test of the never-deployed spare reveals the same latent fault.
Healthy switches have an effectively unbounded MTBF on campaign scales.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Set

from repro.hardware.faults import hazard_probability
from repro.sim.rng import UniformSource
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1


class SwitchState(enum.Enum):
    """Operational state of a switch."""

    OK = "ok"
    FAILED = "failed"


class NetworkSwitch:
    """An 8-port Ethernet switch, possibly with the latent whine defect.

    Parameters
    ----------
    name:
        Label, e.g. ``"tent-sw1"``.
    rng:
        Fault stream.
    inherent_defect:
        The individuals used in (and spared from) the tent all had it.
    defect_mean_life_hours:
        Mean powered-on time to failure for defective units (~a week).
    healthy_mtbf_hours:
        MTBF for sound units (decades).
    """

    PORT_COUNT = 8

    def __init__(
        self,
        name: str,
        rng: UniformSource,
        inherent_defect: bool = False,
        defect_mean_life_hours: float = 190.0,
        healthy_mtbf_hours: float = 200_000.0,
    ) -> None:
        self.name = name
        self.inherent_defect = inherent_defect
        #: The cosmetic symptom that flagged these individuals: the whine.
        self.whines = inherent_defect
        self.state = SwitchState.OK
        self.failed_at: Optional[float] = None
        self.powered_hours = 0.0
        self._rng = rng
        self._rate_per_hour = (
            1.0 / defect_mean_life_hours if inherent_defect else 1.0 / healthy_mtbf_hours
        )
        self._ports: Set[str] = set()

    def __repr__(self) -> str:
        defect = " defective" if self.inherent_defect else ""
        return f"NetworkSwitch({self.name!r}, {self.state.value}{defect})"

    # ------------------------------------------------------------------
    # Port management
    # ------------------------------------------------------------------
    def connect(self, endpoint: str) -> None:
        """Attach an endpoint (host or uplink) to a free port."""
        if endpoint in self._ports:
            return
        if len(self._ports) >= self.PORT_COUNT:
            raise ValueError(f"{self.name}: all {self.PORT_COUNT} ports in use")
        self._ports.add(endpoint)

    def disconnect(self, endpoint: str) -> None:
        """Detach an endpoint; unknown endpoints are ignored."""
        self._ports.discard(endpoint)

    def connected(self) -> List[str]:
        """Endpoints currently attached, sorted."""
        return sorted(self._ports)

    def carries(self, endpoint: str) -> bool:
        """Whether traffic for ``endpoint`` flows (port attached, switch up)."""
        return self.state is SwitchState.OK and endpoint in self._ports

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def operational(self) -> bool:
        """Whether the switch forwards frames."""
        return self.state is SwitchState.OK

    def tick(self, dt_s: float, time: float) -> None:
        """Accrue powered-on time; defective units may die."""
        if not self.operational:
            return
        self.powered_hours += dt_s / 3600.0
        if self._rng.random() < hazard_probability(self._rate_per_hour, dt_s):
            self.fail(time)

    def fail(self, time: float) -> None:
        """Hard failure: all ports go dark."""
        self.state = SwitchState.FAILED
        self.failed_at = time

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Lifecycle, port map, and the defect parameters.

        Defect flags and the failure rate are serialised too: a
        replacement switch is created mid-campaign with non-default
        arguments, and restore rebuilds it generically before loading.
        """
        return {
            "version": _STATE_VERSION,
            "state": self.state.value,
            "failed_at": self.failed_at,
            "powered_hours": self.powered_hours,
            "inherent_defect": self.inherent_defect,
            "whines": self.whines,
            "rate_per_hour": self._rate_per_hour,
            "ports": sorted(self._ports),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        component = f"switch.{self.name}"
        with parsing(component):
            check_version(component, state, _STATE_VERSION)
            switch_state = SwitchState(state["state"])
            failed_at = state["failed_at"]
            failed_at = None if failed_at is None else float(failed_at)
            powered_hours = float(state["powered_hours"])
            inherent_defect = bool(state["inherent_defect"])
            whines = bool(state["whines"])
            rate_per_hour = float(state["rate_per_hour"])
            ports = set(state["ports"])
        self.state = switch_state
        self.failed_at = failed_at
        self.powered_hours = powered_hours
        self.inherent_defect = inherent_defect
        self.whines = whines
        self._rate_per_hour = rate_per_hour
        self._ports = ports

    def bench_test(self, duration_hours: float, time: float) -> bool:
        """Power the unit on a bench for ``duration_hours``.

        Returns True if it survives.  This is the paper's post-mortem on
        the never-deployed spare, which "manifested an identical failure
        state" -- proving the defect inherent, not cold-induced.
        """
        if duration_hours < 0:
            raise ValueError("duration cannot be negative")
        if not self.operational:
            return False
        p_fail = hazard_probability(self._rate_per_hour, duration_hours * 3600.0)
        if self._rng.random() < p_fail:
            self.fail(time)
            return False
        self.powered_hours += duration_hours
        return True
