"""Tests for the lm-sensors chip cold-failure state machine."""

import numpy as np
import pytest

from repro.hardware.sensors import ERRONEOUS_READING_C, SensorChip, SensorState


def make_chip(seed=1, **kwargs):
    return SensorChip(np.random.default_rng(seed), **kwargs)


class TestHealthyOperation:
    def test_reads_near_truth(self):
        chip = make_chip(noise_std_c=0.1)
        value = chip.read(35.0, time=0.0)
        reading = chip.history[-1]
        assert reading.cpu_temp_c == value == pytest.approx(35.0, abs=0.5)
        assert reading.time == 0.0
        assert reading.state is SensorState.OK
        assert reading.plausible

    def test_warm_operation_never_latches(self):
        chip = make_chip(latch_rate_per_hour=1000.0)
        for hour in range(1000):
            chip.exposure_step(die_temp_c=30.0, dt_s=3600.0, time=hour * 3600.0)
        assert chip.state is SensorState.OK
        assert chip.cold_exposure_s == 0.0


class TestColdLatch:
    def test_deep_cold_latches_quickly_at_high_rate(self):
        chip = make_chip(latch_rate_per_hour=100.0)
        chip.exposure_step(die_temp_c=-9.0, dt_s=3600.0, time=0.0)
        assert chip.state is SensorState.ERRATIC
        assert chip.ever_latched
        assert chip.latch_time == 0.0

    def test_latched_chip_reads_minus_111(self):
        chip = make_chip(latch_rate_per_hour=100.0)
        chip.exposure_step(-9.0, 3600.0, 0.0)
        assert chip.read(-5.0, time=10.0) == ERRONEOUS_READING_C
        reading = chip.history[-1]
        assert reading.cpu_temp_c == ERRONEOUS_READING_C
        assert reading.state is SensorState.ERRATIC
        assert not reading.plausible

    def test_cold_exposure_accrues_below_threshold_only(self):
        chip = make_chip(latch_rate_per_hour=0.0)
        chip.exposure_step(-9.0, 100.0, 0.0)
        chip.exposure_step(10.0, 100.0, 100.0)
        assert chip.cold_exposure_s == 100.0

    def test_threshold_matches_paper_narrative(self):
        # The chip reported "below -4 degC" before failing: the default
        # latch threshold must sit below -3 but far above -111.
        chip = make_chip()
        assert -5.0 < chip.latch_threshold_c <= -2.0

    def test_statistical_latch_probability(self):
        # At 0.035/h, ~12 h of deep cold latches ~1 - exp(-0.42) ~ 34 %.
        latched = 0
        for seed in range(300):
            chip = make_chip(seed=seed)
            for step in range(12):
                chip.exposure_step(-9.0, 3600.0, step * 3600.0)
            latched += chip.ever_latched
        assert 0.20 < latched / 300 < 0.50


class TestRedetection:
    def test_redetect_erratic_chip_loses_it(self):
        # "Instead, the opposite resulted, and the sensor chip ceased to
        # be detected at all."
        chip = make_chip(latch_rate_per_hour=100.0)
        chip.exposure_step(-9.0, 3600.0, 0.0)
        assert chip.redetect() is SensorState.UNDETECTED
        assert chip.read(30.0, time=1.0) is None
        assert chip.history[-1].cpu_temp_c is None

    def test_redetect_healthy_chip_is_noop(self):
        chip = make_chip()
        assert chip.redetect() is SensorState.OK

    def test_undetected_chip_not_plausible(self):
        chip = make_chip(latch_rate_per_hour=100.0)
        chip.exposure_step(-9.0, 3600.0, 0.0)
        chip.redetect()
        chip.read(30.0, time=1.0)
        assert not chip.history[-1].plausible


class TestWarmReboot:
    def test_warm_reboot_recovers_from_any_state(self):
        chip = make_chip(latch_rate_per_hour=100.0)
        chip.exposure_step(-9.0, 3600.0, 0.0)
        chip.redetect()
        assert chip.warm_reboot() is SensorState.OK
        chip.read(30.0, time=2.0)
        assert chip.history[-1].plausible

    def test_history_remembers_latch(self):
        chip = make_chip(latch_rate_per_hour=100.0)
        chip.exposure_step(-9.0, 3600.0, 0.0)
        chip.read(-5.0, 1.0)
        chip.read(-5.0, 2.0)
        chip.warm_reboot()
        assert chip.ever_latched
        assert chip.erroneous_reading_count() == 2


class TestValidation:
    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            make_chip().exposure_step(0.0, -1.0, 0.0)

    def test_repr_shows_state(self):
        chip = make_chip()
        assert "ok" in repr(chip)
