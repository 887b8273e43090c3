"""The record the monitoring host keeps per pulled sensor sample."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SensorRecord:
    """One lm-sensors CPU temperature observation pulled from a host.

    ``cpu_temp_c`` is ``None`` when the sensor chip was off the bus
    (the paper's post-redetect state).
    """

    time: float
    host_id: int
    cpu_temp_c: Optional[float]
