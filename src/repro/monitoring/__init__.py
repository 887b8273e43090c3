"""Telemetry substrate: instruments and the monitoring host.

Three instruments from the paper, plus the collection loop:

- :class:`~repro.monitoring.datalogger.LascarDataLogger` -- the
  EL-USB-2-LCD unit inside the tent (+-0.5 degC, +-3 % RH typical), which
  arrived late and had to be carried indoors to download -- producing the
  outliers the paper removed from its graphs,
- :class:`~repro.monitoring.powermeter.TechnolineCostControl` -- the
  energy meter gauging the heat the hardware pumps into the tent,
- :class:`~repro.monitoring.collector.MonitoringHost` -- the 20-minute
  rsync/OpenSSH collection round that recovers md5sums and lm-sensors
  data, routed through the (failure-prone) tent switches.
"""

from repro.monitoring.collector import CollectionRound, MonitoringHost, NetworkPath
from repro.monitoring.datalogger import LascarDataLogger, LoggerReading, RemovalEpisode
from repro.monitoring.health import (
    HealthPolicy,
    HealthTracker,
    HostHealth,
    HostHealthState,
)
from repro.monitoring.powermeter import PowerReading, TechnolineCostControl
from repro.monitoring.records import SensorRecord
from repro.monitoring.transport import (
    LinkFault,
    LinkFaultAction,
    LinkFaultPlan,
    LinkStorm,
    RsyncChannel,
    TransferLedger,
    TransferRecord,
)
from repro.monitoring.webcam import TerraceWebcam, WebcamFrame

__all__ = [
    "LascarDataLogger",
    "LoggerReading",
    "RemovalEpisode",
    "TechnolineCostControl",
    "PowerReading",
    "MonitoringHost",
    "NetworkPath",
    "CollectionRound",
    "SensorRecord",
    "TransferLedger",
    "RsyncChannel",
    "TransferRecord",
    "LinkFault",
    "LinkFaultAction",
    "LinkFaultPlan",
    "LinkStorm",
    "HealthPolicy",
    "HealthTracker",
    "HostHealth",
    "HostHealthState",
    "TerraceWebcam",
    "WebcamFrame",
]
