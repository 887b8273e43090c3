"""Tests for the hazard-rate fault models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.faults import (
    FaultEvent,
    FaultKind,
    FaultLog,
    MemoryFaultModel,
    TransientFaultModel,
    hazard_probability,
)
from repro.hardware.host import Host
from repro.hardware.vendors import VENDOR_A, VENDOR_B
from repro.sim.rng import RngStreams


class TestHazardProbability:
    def test_zero_rate_never_fires(self):
        assert hazard_probability(0.0, 3600.0) == 0.0

    def test_zero_time_never_fires(self):
        assert hazard_probability(10.0, 0.0) == 0.0

    def test_one_per_hour_over_an_hour(self):
        assert hazard_probability(1.0, 3600.0) == pytest.approx(1.0 - np.exp(-1.0))

    def test_monotone_in_both_arguments(self):
        assert hazard_probability(2.0, 100.0) > hazard_probability(1.0, 100.0)
        assert hazard_probability(1.0, 200.0) > hazard_probability(1.0, 100.0)

    @given(
        rate=st.floats(min_value=0.0, max_value=100.0),
        dt=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_a_probability(self, rate, dt):
        p = hazard_probability(rate, dt)
        assert 0.0 <= p <= 1.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            hazard_probability(-1.0, 10.0)
        with pytest.raises(ValueError):
            hazard_probability(1.0, -10.0)


class TestTransientFaultModel:
    def test_defective_series_has_higher_rate(self):
        model = TransientFaultModel()
        healthy = model.rate_per_hour(False, 1.0, 30.0, 21.0)
        defective = model.rate_per_hour(True, 1.0, 30.0, 21.0)
        assert defective > 10.0 * healthy

    def test_heat_doubles_rate_every_ten_degrees(self):
        model = TransientFaultModel(temp_reference_c=40.0, temp_doubling_c=10.0)
        base = model.rate_per_hour(True, 1.0, 40.0, 21.0)
        hot = model.rate_per_hour(True, 1.0, 50.0, 21.0)
        assert hot == pytest.approx(2.0 * base)

    def test_no_cold_penalty_by_default(self):
        # The paper's central finding: sub-zero intake is not a killer.
        model = TransientFaultModel()
        cold = model.rate_per_hour(False, 1.0, 10.0, -20.0)
        mild = model.rate_per_hour(False, 1.0, 10.0, 21.0)
        assert cold == pytest.approx(mild)

    def test_cold_multiplier_is_ablatable(self):
        model = TransientFaultModel(cold_multiplier=3.0)
        cold = model.rate_per_hour(False, 1.0, 10.0, -20.0)
        mild = model.rate_per_hour(False, 1.0, 10.0, 21.0)
        assert cold == pytest.approx(3.0 * mild)

    def test_frailty_scales_rate_linearly(self):
        model = TransientFaultModel()
        assert model.rate_per_hour(True, 4.0, 30.0, 21.0) == pytest.approx(
            4.0 * model.rate_per_hour(True, 1.0, 30.0, 21.0)
        )

    def test_frailty_median_near_one(self):
        model = TransientFaultModel()
        rng = np.random.default_rng(3)
        draws = [model.draw_frailty(rng) for _ in range(4000)]
        assert np.median(draws) == pytest.approx(1.0, abs=0.15)

    def test_frailty_produces_lemons(self):
        # The heavy tail is what concentrates failures on host #15.
        model = TransientFaultModel()
        rng = np.random.default_rng(3)
        draws = np.array([model.draw_frailty(rng) for _ in range(4000)])
        assert draws.max() > 10.0

    def test_sample_failure_extremes(self):
        # The transient coin of a host tick: an hour at 30 degC case air
        # and 21 degC intake, dry.
        def transient_strikes(model, spec):
            log = FaultLog()
            host = Host(1, spec, RngStreams(0), transient_model=model)
            host.tick_from_columns(3600.0, 0.0, log, 30.0, 21.0, 40.0, 0.0)
            return bool(log.of_kind(FaultKind.TRANSIENT_SYSTEM))

        assert transient_strikes(TransientFaultModel(defective_rate_per_hour=1e9), VENDOR_B)
        assert not transient_strikes(TransientFaultModel(base_rate_per_hour=0.0), VENDOR_A)


class TestMemoryFaultModel:
    def test_paper_default(self):
        assert MemoryFaultModel().page_fault_ratio == pytest.approx(1.0 / 570e6)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            MemoryFaultModel(page_fault_ratio=1.0)


class TestFaultLog:
    def test_record_and_filter_by_kind(self):
        log = FaultLog()
        log.record(FaultEvent(1.0, FaultKind.TRANSIENT_SYSTEM, host_id=15))
        log.record(FaultEvent(2.0, FaultKind.WRONG_HASH, host_id=3))
        log.record(FaultEvent(3.0, FaultKind.TRANSIENT_SYSTEM, host_id=15))
        assert len(log) == 3
        assert len(log.of_kind(FaultKind.TRANSIENT_SYSTEM)) == 2

    def test_filter_by_host(self):
        log = FaultLog()
        log.record(FaultEvent(1.0, FaultKind.TRANSIENT_SYSTEM, host_id=15))
        log.record(FaultEvent(2.0, FaultKind.SWITCH, host_id=None, detail="tent-sw1"))
        assert len(log.for_host(15)) == 1
        assert len(log.for_host(99)) == 0

    def test_iteration_preserves_order(self):
        log = FaultLog()
        log.record(FaultEvent(1.0, FaultKind.WRONG_HASH, host_id=1))
        log.record(FaultEvent(2.0, FaultKind.WRONG_HASH, host_id=2))
        assert [e.host_id for e in log] == [1, 2]

    def test_event_str_readable(self):
        event = FaultEvent(3600.0, FaultKind.TRANSIENT_SYSTEM, host_id=15)
        assert "host #15" in str(event)
        infra = FaultEvent(0.0, FaultKind.SWITCH, host_id=None, detail="tent-sw1")
        assert "infrastructure" in str(infra)
