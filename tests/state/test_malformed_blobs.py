"""Malformed state blobs raise ``StateError`` and change nothing.

Each loader parses the whole blob before it assigns anything, so a blob
that fails half-way (a bad removal episode after good readings, a bad
cycle start after a good phase) leaves the component as it was.
"""

import copy

import pytest

from repro.climate.generator import WeatherGenerator
from repro.climate.station import WeatherStation
from repro.hardware.faults import TransientFaultModel
from repro.hardware.host import Host
from repro.hardware.vendors import VENDOR_A
from repro.monitoring.datalogger import LascarDataLogger
from repro.sim.clock import HOUR, SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.state.codec import pack_floats
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
    return archiver, ledger


def _archiver():
    return _host_rig()[0]


def _ledger():
    ledger = _host_rig()[1]
    assert ledger.wrong_hash_results, "the rig should produce a wrong hash"
    return ledger


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


@pytest.mark.parametrize("build", [_lascar, _station, _archiver, _ledger])
def test_well_formed_blob_round_trips(build):
    component = build()
    blob = component.state_dict()
    component.load_state_dict(copy.deepcopy(blob))
    assert component.state_dict() == blob
