"""The tie rule: quiet steps settle in the engine's ``(time, seq)`` order.

An archiver's phase changes and a logger's samples are quiet steps, not
events.  Where one lands on the same instant as an event, it must run
exactly where the former per-phase (or per-minute) event fired: before
the event if it was queued first, after it otherwise.  Each test below
drives the quiet-step component and a reference that queues real engine
events side by side, and requires the same observations.
"""

import numpy as np

from repro.climate.generator import WeatherGenerator
from repro.hardware.faults import TransientFaultModel
from repro.hardware.host import Host
from repro.hardware.vendors import VENDOR_A
from repro.monitoring.datalogger import LascarDataLogger
from repro.sim.clock import DAY, SimClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.thermal.enclosure import BasementMachineRoom, Enclosure
from repro.workload.archiver import ArchiverProcess, WorkloadLedger

INSTALL = SimClock().at(2010, 2, 19)
TICK_S = 300.0
ROUND_S = 1200.0


class EventQueue:
    """A view of ``sim`` that queues each quiet step as an engine event."""

    def __init__(self, sim, key):
        self._sim = sim
        self._key = key

    @property
    def now(self):
        return self._sim.now

    def schedule_quiet(self, time, fn):
        if not self._sim.registered(self._key):
            self._sim.register(self._key, fn)
        self._sim.schedule_at_key(time, self._key)
        return [time, None, None, fn]


class EventDrivenArchiver(ArchiverProcess):
    """The archiver as it ran before: one engine event per phase change."""

    def __init__(self, sim, host, *args, **kwargs):
        queue = EventQueue(sim, f"reference.archiver.{host.host_id}")
        super().__init__(queue, host, *args, **kwargs)


def seed_with_fuzz(fuzz):
    """A campaign seed whose host 1 draws ``fuzz`` seconds of start fuzz."""
    for seed in range(100_000):
        stream = RngStreams(seed).spawn("host.01").stream("workload")
        if int(stream.integers(0, 120)) == fuzz:
            return seed
    raise AssertionError(f"no seed draws fuzz {fuzz}")


def observe(archiver_cls, seed, burst_s):
    """Busy flags a 5-minute tick sees and run counts a 20-minute
    collection round sees, over one day from the install instant."""
    sim = Simulator()
    weather = WeatherGenerator(streams=RngStreams(seed))
    room = BasementMachineRoom("basement", weather)
    host = Host(
        1,
        VENDOR_A,
        RngStreams(seed),
        transient_model=TransientFaultModel(
            base_rate_per_hour=0.0, defective_rate_per_hour=0.0
        ),
    )
    ledger = WorkloadLedger()
    ticks, rounds, archivers = [], [], []
    sim.register("tick", lambda: ticks.append((sim.now, host.cpu.busy)))
    sim.register(
        "round", lambda: rounds.append((sim.now, ledger.runs_per_host.get(1, 0)))
    )

    def install():
        room.advance(sim.now)
        host.install(room, sim.now)
        archivers.append(
            archiver_cls(sim, host, ledger, burst_duration_s=burst_s)
        )

    sim.register("install", install)
    # As in the campaign: the recurrences are queued before the install.
    sim.every_key(TICK_S, "tick", start=INSTALL - DAY)
    sim.every_key(ROUND_S, "round", start=INSTALL - DAY + 600.0)
    sim.schedule_at_key(INSTALL, "install")
    sim.run_until(INSTALL + DAY)
    return ticks, rounds


class TestArchiverTies:
    def test_cycle_starts_on_tick_and_round_instants(self):
        # Zero fuzz and an exact burst: every cycle starts on a tick and
        # every other one on a collection round.
        seed = seed_with_fuzz(0)
        quiet = observe(ArchiverProcess, seed, burst_s=150.0)
        reference = observe(EventDrivenArchiver, seed, burst_s=150.0)
        assert quiet == reference
        ticks, rounds = quiet
        starts = {INSTALL + k * 600.0 for k in range(144)}
        tied = [busy for t, busy in ticks if t in starts]
        assert len(tied) == 144
        # The first cycle start is queued by the install, after the tick
        # at that instant: the tick sees the host idle.  Every later one
        # is queued at the previous burst end, 450 s ahead, before the
        # tick (300 s ahead): the tick sees the host busy.
        assert tied[0] is False and all(tied[1:])
        assert [t for t, _ in rounds if t in starts]

    def test_burst_ends_on_tick_and_round_instants(self):
        # 100 s of fuzz and a 500 s burst: every burst ends on a tick and
        # every other one on a collection round.
        seed = seed_with_fuzz(100)
        quiet = observe(ArchiverProcess, seed, burst_s=500.0)
        reference = observe(EventDrivenArchiver, seed, burst_s=500.0)
        assert quiet == reference
        ticks, rounds = quiet
        ends = [INSTALL + 600.0 * (k + 1) for k in range(143)]
        # The burst end was queued 500 s ahead, before the tick (300 s)
        # and the round (1200 s ahead, so the round comes first): the
        # tick sees the host idle, the round misses the run just done.
        by_time = dict(ticks)
        assert all(not by_time[t] for t in ends)
        tied_rounds = [(t, runs) for t, runs in rounds if t in set(ends)]
        assert tied_rounds
        for t, runs in tied_rounds:
            assert runs == sum(1 for end in ends if end < t)


class RampEnclosure(Enclosure):
    """Intake that rises 3 degC per 5-minute advance."""

    def _update(self, time, dt_s):
        self.intake_temp_c = (time - INSTALL) / 100.0
        self.intake_rh_percent = 50.0


def test_lascar_sample_on_an_advance_reads_what_the_minute_event_read():
    weather = WeatherGenerator(streams=RngStreams(1))
    sim = Simulator()
    tent = RampEnclosure("tent", weather)
    arrival = INSTALL + 1800.0  # on a 5-minute advance instant
    quiet = LascarDataLogger(tent, RngStreams(4), arrival_time=arrival)
    reference = LascarDataLogger(tent, RngStreams(4), arrival_time=arrival)
    sim.register("advance", lambda: tent.advance(sim.now))
    sim.register("minute", lambda: reference.sample(sim.now))

    def attach():
        # Both loggers are attached (queued) at the same moment, long
        # before the advance that shares their first instant.
        quiet.attach(sim)
        sim.every_key(60.0, "minute", start=arrival)

    sim.register("attach", attach)
    sim.every_key(TICK_S, "advance", start=INSTALL)
    sim.schedule_at_key(INSTALL, "attach")
    sim.run_until(arrival + 2 * 3600.0)

    assert np.array_equal(quiet.times(), reference.times())
    assert np.array_equal(quiet.temperatures(), reference.temperatures())
    assert np.array_equal(quiet.humidities(), reference.humidities())
    # The first sample was queued before the advance at its instant and
    # reads the intake before it; a later one on an advance instant was
    # queued after that advance and reads the intake after it.
    temps = dict(zip(quiet.times(), quiet.temperatures()))
    assert abs(temps[arrival] - 15.0) <= 1.0
    assert abs(temps[arrival + TICK_S] - 21.0) <= 1.0
