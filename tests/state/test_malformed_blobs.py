"""Malformed state blobs raise ``StateError`` and change nothing.

Each loader parses the whole blob before it assigns anything, so a blob
that fails half-way (a bad removal episode after good readings, a bad
cycle start after a good phase, a bad history column after a good
scalar) leaves the component as it was.  Every packed record history
is checked for a missing column, a column of the wrong dtype and a
column shorter than the others.
"""

import copy

import numpy as np
import pytest

from repro.climate.generator import WeatherGenerator
from repro.climate.station import WeatherStation
from repro.hardware.faults import TransientFaultModel
from repro.hardware.host import Host
from repro.hardware.smart import ATTR_POWER_ON_HOURS, SmartTable
from repro.hardware.switch import NetworkSwitch
from repro.hardware.vendors import VENDOR_A
from repro.monitoring.collector import MonitoringHost
from repro.monitoring.datalogger import LascarDataLogger
from repro.monitoring.powermeter import TechnolineCostControl
from repro.monitoring.transport import TransferLedger
from repro.monitoring.webcam import TerraceWebcam
from repro.sim.clock import HOUR, SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.state.codec import pack_floats, pack_ints
from repro.state.protocol import StateError
from repro.thermal.enclosure import BasementMachineRoom
from repro.workload.archiver import ArchiverProcess, WorkloadLedger

START = SimClock().at(2010, 3, 1)


def _rig():
    sim = Simulator()
    weather = WeatherGenerator(streams=RngStreams(3))
    room = BasementMachineRoom("basement", weather)
    sim.run_until(START)
    room.advance(START)
    return sim, weather, room


def _lascar():
    sim, _, room = _rig()
    logger = LascarDataLogger(room, RngStreams(3), arrival_time=START)
    logger.schedule_download_trip(START + HOUR)
    logger.attach(sim)
    sim.run_until(START + 2 * HOUR)
    return logger


def _station():
    sim, weather, _ = _rig()
    station = WeatherStation(weather, RngStreams(3))
    station.attach(sim, start=START)
    sim.run_until(START + 2 * HOUR)
    return station


def _host_rig():
    sim, _, room = _rig()
    host = Host(
        1,
        VENDOR_A,
        RngStreams(3),
        transient_model=TransientFaultModel(
            base_rate_per_hour=0.0, defective_rate_per_hour=0.0
        ),
        memory_fault_ratio=1e-5,
    )
    host.install(room, START)
    ledger = WorkloadLedger()
    archiver = ArchiverProcess(sim, host, ledger)
    sim.run_until(START + 2 * HOUR)
    return sim, host, archiver, ledger


def _archiver():
    return _host_rig()[2]


def _ledger():
    ledger = _host_rig()[3]
    assert ledger.wrong_hash_results, "the rig should produce a wrong hash"
    return ledger


def _memory():
    memory = _host_rig()[1].memory
    assert memory.faults, "the rig should produce a memory fault"
    return memory


def _collector():
    sim, host, _, ledger = _host_rig()
    collector = MonitoringHost(sim, transport=TransferLedger(), workload_ledger=ledger)
    collector.register(host, [])
    for _ in range(3):
        collector.collect_round()
        sim.run_until(sim.now + HOUR)
    return collector


def _sensor():
    return _collector().paths[1].host.sensor


def _host():
    return _host_rig()[1]


def _storage():
    storage = _host().storage
    assert len(storage.disks) == 2, "the rig's vendor mirrors two disks"
    return storage


def _transfers():
    return _collector().transport


def _webcam():
    _, weather, _ = _rig()
    webcam = TerraceWebcam(weather, RngStreams(3))
    for hour in range(3):
        webcam.capture(START + hour * HOUR)
    return webcam


def _powermeter():
    meter = TechnolineCostControl(RngStreams(3))
    for minutes in range(3):
        meter.sample(START + minutes * 600.0)
    return meter


def _switch():
    switch = NetworkSwitch("tent-sw1", np.random.default_rng(3), inherent_defect=True)
    switch.connect("host01")
    switch.tick(2 * HOUR, START)
    return switch


def _smart():
    table = SmartTable()
    table.accrue_uptime(2 * HOUR)
    table.set_temperature(31.5)
    table.add_reallocated_sectors(40)
    table.run_long_self_test(START, media_healthy=True)
    return table


def _set(path, value):
    def apply(blob):
        target = blob
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return blob

    return apply


def _then(*breakages):
    """Apply several edits: valid changes first, then the breakage, so a
    loader that assigns before it has parsed everything shows it."""

    def apply(blob):
        for breakage in breakages:
            blob = breakage(blob)
        return blob

    return apply


def _negative(path):
    """Every value of a packed int column made negative, keeping its length."""

    def apply(blob):
        target = blob
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = pack_ints([-1] * target[path[-1]]["n"])
        return blob

    return apply


def _drop(path):
    def apply(blob):
        target = blob
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return blob

    return apply


OTHER_READINGS = {
    "time": pack_floats([1.0]),
    "temp_c": pack_floats([2.0]),
    "rh_percent": pack_floats([3.0]),
}

CASES = [
    ("lascar", _lascar, lambda blob: "not a dict"),
    ("lascar", _lascar, _set(["version"], 99)),
    ("lascar", _lascar, _set(["readings", "temp_c"], pack_floats([1.0]))),
    # Good (different) readings, then an episode that ends before it starts.
    (
        "lascar",
        _lascar,
        _then(
            _set(["readings"], OTHER_READINGS),
            _set(["removal_episodes"], [[10.0, 5.0]]),
        ),
    ),
    ("lascar", _lascar, _set(["next"], ["soon", 1, 2])),
    ("station", _station, lambda blob: [blob]),
    ("station", _station, _set(["readings", "wind_ms"], pack_floats([]))),
    ("station", _station, _set(["readings", "time"], {"__packed__": "f8"})),
    ("station", _station, _set(["next"], "later")),
    # An unknown phase, then a good (different) phase with a bad cycle start.
    ("archiver", _archiver, _set(["phase"], "sleeping")),
    (
        "archiver",
        _archiver,
        _then(_set(["phase"], "burst"), _set(["cycle_start"], "noon")),
    ),
    ("archiver", _archiver, _set(["alive"], "yes")),
    ("archiver", _archiver, _set(["next"], None)),
    ("archiver", _archiver, _set(["next"], [1.0, 2])),
    ("ledger", _ledger, _set(["runs_per_host"], {"1": "many"})),
    ("ledger", _ledger, _set(["wrong_hash_results"], [[1.0, 1, False]])),
    # Good (different) counts, then an archive with a block out of range.
    (
        "ledger",
        _ledger,
        _then(
            _set(["runs_per_host"], {"1": 1}),
            _set(["stored_archives"], [[1, 1.0, 396, [400]]]),
        ),
    ),
    # Each packed record history: a column shorter than the others, a
    # column of the wrong dtype, a missing column, and a good (different)
    # scalar before a broken column.
    ("sensor", _sensor, _set(["history", "time"], pack_floats([]))),
    ("sensor", _sensor, _set(["history", "state"], pack_floats([0.0]))),
    ("sensor", _sensor, _set(["history", "state"], pack_ints([7]))),
    ("sensor", _sensor, _set(["history", "state"], pack_ints([-1]))),
    ("sensor", _sensor, _drop(["history", "cpu_temp_c"])),
    (
        "sensor",
        _sensor,
        _then(_set(["state"], "erratic"), _set(["history", "time"], pack_ints([0]))),
    ),
    ("memory", _memory, _set(["faults", "page_index"], pack_ints([]))),
    ("memory", _memory, _set(["faults", "corrected"], pack_floats([1.0]))),
    ("memory", _memory, _drop(["faults", "time"])),
    (
        "memory",
        _memory,
        _then(_set(["page_ops_total"], 5), _set(["faults", "time"], pack_ints([0]))),
    ),
    ("collector", _collector, _set(["sensor_records", "host_id"], pack_ints([1]))),
    ("collector", _collector, _set(["sensor_records", "time"], pack_ints([0]))),
    ("collector", _collector, _drop(["sensor_records", "cpu_temp_c"])),
    ("collector", _collector, _set(["task_id"], "next")),
    (
        "collector",
        _collector,
        _then(
            _set(["totals"], [1, 2.0, 3, 4, 5, 6.0, 7, 8]),
            _set(["sensor_records", "host_id"], pack_floats([1.0])),
        ),
    ),
    # Good (different) records, then a tracker host in an unknown state.
    (
        "collector",
        _collector,
        _then(
            _set(["rounds"], []),
            _set(["tracker", "hosts"], {"1": ["dazed", 0]}),
        ),
    ),
    ("transfers", _transfers, _set(["records", "bytes_moved"], pack_ints([]))),
    ("transfers", _transfers, _set(["records", "complete"], pack_ints([1]))),
    ("transfers", _transfers, _drop(["records", "new_md5_lines"])),
    (
        "transfers",
        _transfers,
        _then(
            _set(["partial_sessions"], 9),
            _set(["records", "time"], pack_ints([0])),
        ),
    ),
    ("webcam", _webcam, _set(["frames", "brightness"], pack_floats([0.5]))),
    ("webcam", _webcam, _set(["frames", "snowing"], pack_floats([0.0]))),
    ("webcam", _webcam, _drop(["frames", "tent_snow_cover"])),
    ("webcam", _webcam, _set(["task_id"], "soon")),
    (
        "webcam",
        _webcam,
        _then(_set(["snow_cover"], 0.5), _set(["frames", "time"], pack_ints([0]))),
    ),
    ("powermeter", _powermeter, _set(["readings", "watts"], pack_floats([]))),
    ("powermeter", _powermeter, _set(["readings", "time"], pack_ints([0]))),
    ("powermeter", _powermeter, _drop(["readings", "watts"])),
    ("powermeter", _powermeter, _set(["task_id"], [3])),
    (
        "powermeter",
        _powermeter,
        _then(
            _set(["energy_kwh"], 1.5),
            _set(["readings", "watts"], {"__packed__": "f8"}),
        ),
    ),
    # Leaf hardware: a good (different) lifecycle state, then a bad number.
    (
        "switch",
        _switch,
        _then(_set(["state"], "failed"), _set(["powered_hours"], "x")),
    ),
    ("switch", _switch, _set(["state"], "smoking")),
    ("switch", _switch, _set(["ports"], 8)),
    # A good (different) attribute row, then a short self-test row.
    (
        "smart",
        _smart,
        _then(
            _set(["attrs", str(ATTR_POWER_ON_HOURS)], [90, 90, 5.0]),
            _set(["self_tests"], [[1.0, True]]),
        ),
    ),
    ("smart", _smart, _set(["attrs", "42"], [100, 100, 0.0])),
    (
        "smart",
        _smart,
        _then(
            _set(["attrs", str(ATTR_POWER_ON_HOURS)], [90, 90, 5.0]),
            _set(["attrs", "194"], [100, 100, "warm"]),
        ),
    ),
    # A host: a good (different) uptime, then a bad sensor history column.
    (
        "host",
        _host,
        _then(_set(["uptime_s"], 99.0), _set(["sensor", "history", "time"], pack_ints([0]))),
    ),
    # Storage: a good (different) first disk, then a bad second disk.
    (
        "storage",
        _storage,
        _then(_set(["disks", 0, "state"], "failed"), _set(["disks", 1, "state"], "smoking")),
    ),
    (
        "storage",
        _storage,
        _then(_set(["disks", 0, "failed_at"], 5.0), _set(["disks", 1, "version"], 99)),
    ),
    # A transfer that moved a negative byte count.
    ("transfers", _transfers, _negative(["records", "bytes_moved"])),
]


@pytest.mark.parametrize(
    "build, breakage",
    [(build, breakage) for _, build, breakage in CASES],
    ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(CASES)],
)
def test_malformed_blob_raises_and_changes_nothing(build, breakage):
    component = build()
    before = component.state_dict()
    blob = breakage(copy.deepcopy(before))
    with pytest.raises(StateError):
        component.load_state_dict(blob)
    assert component.state_dict() == before


@pytest.mark.parametrize(
    "build",
    [
        _lascar,
        _station,
        _archiver,
        _ledger,
        _sensor,
        _memory,
        _collector,
        _transfers,
        _webcam,
        _powermeter,
        _switch,
        _smart,
        _host,
        _storage,
    ],
)
def test_well_formed_blob_round_trips(build):
    component = build()
    blob = component.state_dict()
    component.load_state_dict(copy.deepcopy(blob))
    assert component.state_dict() == blob
