"""P1 -- substrate performance: what a campaign-second costs.

Not a paper artefact, but a systems repository should know its own
numbers: event-loop throughput, weather-generator build time, and the
cost of one archival cycle.  Regressions here stretch the 20-second
full campaign into minutes.
"""

from conftest import record

from repro.climate.generator import WeatherGenerator
from repro.climate.profiles import HELSINKI_2010
from repro.hardware.faults import TransientFaultModel
from repro.hardware.host import Host
from repro.hardware.vendors import VENDOR_A
from repro.sim.clock import SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.thermal.enclosure import BasementMachineRoom
from repro.workload.archiver import ArchiverProcess, WorkloadLedger

_EVENTS = 50_000


def drain_event_queue():
    sim = Simulator()
    sim.register("noop", lambda: None)
    for i in range(_EVENTS):
        sim.schedule_key(float(i % 1000), "noop")
    sim.run()
    return sim.events_fired


def build_weather():
    return WeatherGenerator(HELSINKI_2010, RngStreams(3))


def test_bench_event_loop_throughput(benchmark):
    fired = benchmark.pedantic(drain_event_queue, rounds=3, iterations=1)
    assert fired == _EVENTS
    per_second = _EVENTS / benchmark.stats.stats.mean
    record(
        benchmark,
        events=_EVENTS,
        events_per_second=int(per_second),
    )
    # Regression guard, sized for a loaded CI box: the campaign needs the
    # loop to sustain on the order of 10^5 events/s on idle hardware, but
    # under full-suite contention half that is normal.
    assert per_second > 25_000


def test_bench_weather_generator_build(benchmark):
    weather = benchmark.pedantic(build_weather, rounds=3, iterations=1)
    assert weather.end_time > weather.start_time
    record(
        benchmark,
        grid_hours=int((weather.end_time - weather.start_time) / 3600.0),
    )


def test_bench_archival_cycles(benchmark):
    sim = Simulator()
    weather = build_weather()
    basement = BasementMachineRoom("basement", weather)
    start = SimClock().at(2010, 2, 19)
    sim.run_until(start)
    basement.advance(start)
    host = Host(
        1, VENDOR_A, RngStreams(3),
        transient_model=TransientFaultModel(base_rate_per_hour=0.0),
    )
    host.install(basement, start)
    ledger = WorkloadLedger()
    archiver = ArchiverProcess(sim, host, ledger)

    def one_day():
        sim.run_until(sim.now + 86_400.0)
        return ledger.total_runs

    runs = benchmark.pedantic(one_day, rounds=3, iterations=1)
    assert runs >= 144  # one day of 10-minute cycles
    record(benchmark, cycles_completed=runs)
