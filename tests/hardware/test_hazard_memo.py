"""Memoised nominal hazards (``HazardMemo``) and what invalidates them.

The drive, host, sensor and switch ticks reuse the last probability they
computed for a nominal rate.  Each test pins the probability a tick
strikes at exactly (a coin just below it strikes, a coin equal to it does
not) after the tick has warmed its memo on another rate: a swapped fault
model, a restored frailty or switch rate, a hot or cold case must each
give the probability of the new rate.
"""

import types

import numpy as np
import pytest

from repro.hardware.faults import HazardMemo, TransientFaultModel, hazard_probability
from repro.hardware.host import Host, HostState
from repro.hardware.sensors import SensorChip, SensorState
from repro.hardware.storage import StorageSubsystem
from repro.hardware.switch import NetworkSwitch
from repro.hardware.vendors import VENDOR_A, VENDOR_B
from repro.sim.rng import RngStreams

DT_S = 300.0


class FixedCoin:
    """A coin stream whose every draw is ``u``."""

    def __init__(self, u=0.5):
        self.u = u

    def random(self):
        return self.u


def _edge(p):
    """Coins just below ``p`` (strikes) and at ``p`` (does not)."""
    return float(np.nextafter(p, 0.0)), p


def _host(intake_c, spec=VENDOR_A, **kwargs):
    host = Host(1, spec, RngStreams(5), **kwargs)
    host.install(types.SimpleNamespace(name="stub", intake_temp_c=intake_c), 0.0)
    return host


def _strikes(host, u):
    host._fault_rng = FixedCoin(u)
    host.tick(DT_S, 0.0)
    struck = host.state is HostState.FAILED
    if struck:
        host.reset(0.0)
    return struck


def _host_p(host):
    """The transient probability of the host's current model and case."""
    rate = host.transient_model.rate_per_hour(
        host.spec.defective_series,
        host.frailty,
        host.case_temp_c(),
        host.intake_temp_c(),
    )
    return hazard_probability(rate, DT_S)


def _host_strikes_at(host, p):
    below, at = _edge(p)
    return _strikes(host, below) and not _strikes(host, at)


class TestHostTransient:
    def test_swapping_the_model_changes_p(self):
        host = _host(10.0)
        assert _host_strikes_at(host, _host_p(host))
        host.transient_model = TransientFaultModel(base_rate_per_hour=0.02)
        p = _host_p(host)
        assert p > 1e-3
        assert _host_strikes_at(host, p)

    def test_restoring_a_new_frailty_changes_p(self):
        host = _host(10.0, spec=VENDOR_B)
        before = _host_p(host)
        assert _host_strikes_at(host, before)
        state = host.state_dict()
        state["frailty"] = host.frailty * 50.0
        host.load_state_dict(state)
        after = _host_p(host)
        assert after > 10 * before
        assert _host_strikes_at(host, after)

    def test_a_hot_case_takes_the_heat_path(self):
        host = _host(10.0)
        nominal = _host_p(host)
        assert _host_strikes_at(host, nominal)
        host.enclosure.intake_temp_c = 70.0
        assert host.case_temp_c() > host.transient_model.temp_reference_c
        hot = _host_p(host)
        assert hot > 4 * nominal
        assert _host_strikes_at(host, hot)

    @pytest.mark.parametrize("multiplier", [1.0, 30.0])
    def test_a_cold_intake_applies_the_cold_multiplier(self, multiplier):
        host = _host(5.0, transient_model=TransientFaultModel(cold_multiplier=multiplier))
        warm = _host_p(host)
        assert _host_strikes_at(host, warm)
        host.enclosure.intake_temp_c = -15.0
        cold = _host_p(host)
        assert (cold > warm) == (multiplier > 1.0)
        assert _host_strikes_at(host, cold)


class TestStorage:
    def test_a_hot_case_takes_the_heat_path(self):
        def fails_at(u):
            sub = StorageSubsystem("h", VENDOR_B, FixedCoin(0.9))
            sub.tick(DT_S, 40.0, 0.0)  # warms the nominal memo
            sub._rng = FixedCoin(u)
            sub.tick(DT_S, 60.0, 1.0)
            return not sub.disks[0].healthy

        rate = StorageSubsystem("h", VENDOR_B, FixedCoin()).disks[0]._rate_per_hour
        below, at = _edge(hazard_probability(rate * 2.0, DT_S))
        assert fails_at(below) and not fails_at(at)

    def test_tick_reports_any_unhealthy_drive(self):
        sub = StorageSubsystem("h", VENDOR_A, FixedCoin(0.9))
        assert sub.tick(DT_S, 30.0, 0.0) is False
        sub.disks[1].fail(1.0)  # failed outside the tick
        assert sub.tick(DT_S, 30.0, 2.0) is True
        assert sub.operational
        fresh = StorageSubsystem("h", VENDOR_B, FixedCoin(0.0))
        assert fresh.tick(DT_S, 30.0, 0.0) is True  # failed inside the tick
        assert not fresh.operational


class TestSwitch:
    def test_restoring_a_rate_changes_p(self):
        switch = NetworkSwitch("sw", FixedCoin(0.9), inherent_defect=True)
        switch.tick(DT_S, 0.0)
        state = switch.state_dict()
        state["rate_per_hour"] = 2.0
        below, at = _edge(hazard_probability(2.0, DT_S))
        for u, dies in ((at, False), (below, True)):
            switch.load_state_dict(state)
            switch._rng = FixedCoin(u)
            switch.tick(DT_S, 1.0)
            assert switch.operational is not dies


class TestSensor:
    def test_a_new_latch_rate_changes_p(self):
        chip = SensorChip(FixedCoin(0.9))
        chip.exposure_step(-10.0, DT_S, 0.0)
        chip.latch_rate_per_hour = 3.0
        below, at = _edge(hazard_probability(3.0, DT_S))
        chip._rng = FixedCoin(at)
        chip.exposure_step(-10.0, DT_S, 1.0)
        assert chip.state is SensorState.OK
        chip._rng = FixedCoin(below)
        chip.exposure_step(-10.0, DT_S, 2.0)
        assert chip.state is SensorState.ERRATIC


class TestHazardMemo:
    def test_answers_equal_hazard_probability(self):
        memo = HazardMemo()
        for rate, dt in [(0.1, 300.0), (0.1, 300.0), (0.2, 300.0), (0.2, 600.0), (0.1, 300.0)]:
            assert memo.probability(rate, dt) == hazard_probability(rate, dt)

    def test_invalid_arguments_still_raise(self):
        memo = HazardMemo()
        with pytest.raises(ValueError):
            memo.probability(-1.0, 300.0)
        with pytest.raises(ValueError):
            memo.probability(1.0, -300.0)
