"""The Technoline Cost Control energy meter.

Section 3.3: "in order to gauge the amount of heat generated by the
hardware we used a Technoline Cost Control unit", a consumer plug-through
meter that a local comparison study [Liikkanen & Nieminen 2009] "found to
perform very admirably given its price".  The model: the meter sums the
wall draw of whatever is plugged into it, with a small multiplicative
error and 1 W display resolution, and integrates energy in kWh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.hardware.host import Host
from repro.sim.clock import HOUR, MINUTE
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.rng import RngStreams
from repro.state.codec import History
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1


@dataclass(frozen=True)
class PowerReading:
    """One displayed wattage sample."""

    time: float
    watts: float


_READINGS = History(PowerReading, [("time", float), ("watts", float)])


class TechnolineCostControl:
    """Plug-through power meter feeding the tent's heat budget analysis.

    The strip starts empty; machines join one at a time through
    :meth:`plug_in`, mirroring how the operators cabled each tent host
    into the metered feed on its install day.  The meter owns its host
    list outright — there is no shared-list constructor to alias between
    two campaigns.

    Parameters
    ----------
    streams:
        RNG family (uses the ``powermeter.noise`` stream).
    relative_error_std:
        1-sigma multiplicative error (~2 % for this class of meter).
    period_s:
        Sampling cadence when attached to a simulator.
    """

    DISPLAY_RESOLUTION_W = 1.0

    def __init__(
        self,
        streams: Optional[RngStreams] = None,
        relative_error_std: float = 0.02,
        period_s: float = 10 * MINUTE,
    ) -> None:
        if period_s <= 0:
            raise ValueError("sampling period must be positive")
        self.hosts: List[Host] = []
        self.relative_error_std = relative_error_std
        self.period_s = period_s
        streams = streams if streams is not None else RngStreams(0)
        self._rng = streams.stream("powermeter.noise")
        self.readings = _READINGS.store()  # PowerReading rows
        self.energy_kwh = 0.0
        self._last_sample_time: Optional[float] = None
        self._handle: Optional[PeriodicTask] = None
        self._sim: Optional[Simulator] = None
        self._restore_task_id: Optional[int] = None

    def __repr__(self) -> str:
        return (
            f"TechnolineCostControl(hosts={len(self.hosts)}, "
            f"energy={self.energy_kwh:.2f} kWh)"
        )

    def plug_in(self, host: Host) -> None:
        """Add a machine to the metered strip."""
        if host not in self.hosts:
            self.hosts.append(host)

    def true_draw_w(self) -> float:
        """Actual instantaneous draw of everything plugged in."""
        return sum(h.power_w for h in self.hosts)

    def sample(self, time: float) -> PowerReading:
        """Take one displayed reading and integrate energy since the last."""
        true_w = self.true_draw_w()
        displayed = true_w * (1.0 + self._rng.normal(0.0, self.relative_error_std))
        displayed = max(
            0.0, round(displayed / self.DISPLAY_RESOLUTION_W) * self.DISPLAY_RESOLUTION_W
        )
        if self._last_sample_time is not None:
            dt_h = (time - self._last_sample_time) / HOUR
            self.energy_kwh += displayed / 1000.0 * dt_h
        self._last_sample_time = time
        self.readings.append(time, displayed)
        return PowerReading(time=time, watts=displayed)

    def attach(self, sim: Simulator, start: Optional[float] = None) -> None:
        """Start periodic sampling on ``sim``."""
        if self._handle is not None:
            raise RuntimeError("meter already attached")
        first = sim.now if start is None else start
        self.register_keys(sim)
        self._handle = sim.every_key(
            self.period_s, "powermeter.sample", start=first, label="powermeter"
        )

    def detach(self) -> None:
        """Stop sampling."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def register_keys(self, sim: Simulator) -> None:
        """Bind this meter's engine registry key on ``sim``."""
        self._sim = sim
        sim.register("powermeter.sample", self._sample_now)

    def _sample_now(self) -> None:
        self.sample(self._sim.now)

    def state_dict(self) -> Dict[str, Any]:
        """Readings, energy integral, and the plug-in order by host id.

        The restoring campaign re-plugs hosts by id in the stored order,
        so the strip's summation order (and thus nothing) changes.
        """
        return {
            "version": _STATE_VERSION,
            "task_id": self._handle.task_id if self._handle is not None else None,
            "host_ids": [h.host_id for h in self.hosts],
            "energy_kwh": self.energy_kwh,
            "last_sample_time": self._last_sample_time,
            "readings": self.readings.capture(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore everything except the host objects (campaign-resolved)."""
        with parsing("powermeter"):
            check_version("powermeter", state, _STATE_VERSION)
            energy_kwh = float(state["energy_kwh"])
            last_sample_time = state["last_sample_time"]
            last_sample_time = (
                None if last_sample_time is None else float(last_sample_time)
            )
            readings = _READINGS.restore(state["readings"])
            task_id = state["task_id"]
            task_id = None if task_id is None else int(task_id)
        self.energy_kwh = energy_kwh
        self._last_sample_time = last_sample_time
        self.readings = readings
        self._restore_task_id = task_id

    def rebind(self, sim: Simulator) -> None:
        """Re-link the periodic task after the engine's state is loaded."""
        if self._restore_task_id is not None:
            self._handle = sim.periodic_task(self._restore_task_id)
            self._restore_task_id = None

    # ------------------------------------------------------------------
    def watts_series(self) -> np.ndarray:
        """Displayed readings as a read-only array."""
        return self.readings.column("watts")

    def mean_draw_w(self) -> float:
        """Average displayed draw (0 before any samples)."""
        if not self.readings:
            return 0.0
        return float(self.watts_series().mean())
