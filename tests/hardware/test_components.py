"""Tests for CPU, memory bank, and PSU components."""

import numpy as np
import pytest

from repro.hardware.components import Cpu, MemoryBank, PowerSupply
from repro.hardware.vendors import VENDOR_A, VENDOR_C


def rng():
    return np.random.default_rng(99)


class TestCpu:
    def test_idle_and_busy_power(self):
        assert not Cpu(VENDOR_A).busy
        assert VENDOR_A.cpu_active_power_w > VENDOR_A.cpu_idle_power_w

    def test_temperature_rises_when_busy(self):
        idle_temp = VENDOR_A.cpu_temp_c(0.0, 70.0, VENDOR_A.cpu_idle_power_w)
        busy_temp = VENDOR_A.cpu_temp_c(0.0, 70.0, VENDOR_A.cpu_active_power_w)
        assert busy_temp > idle_temp


class TestMemoryBankNonEcc:
    def test_page_ops_accumulate(self):
        bank = MemoryBank(VENDOR_A, rng(), fault_ratio=0.0)
        bank.perform_page_ops(1000, time=0.0)
        bank.perform_page_ops(500, time=1.0)
        assert bank.page_ops_total == 1500

    def test_zero_ratio_never_faults(self):
        bank = MemoryBank(VENDOR_A, rng(), fault_ratio=0.0)
        assert bank.perform_page_ops(10_000_000, time=0.0) == 0
        assert bank.faults == []

    def test_faults_escape_without_ecc(self):
        bank = MemoryBank(VENDOR_A, rng(), fault_ratio=0.01)
        uncorrected = bank.perform_page_ops(10_000, time=0.0)
        assert uncorrected > 0
        assert bank.uncorrected_fault_count == len(bank.faults)
        assert bank.corrected_fault_count == 0

    def test_empirical_ratio_matches_configured(self):
        bank = MemoryBank(VENDOR_A, rng(), fault_ratio=1e-3)
        bank.perform_page_ops(1_000_000, time=0.0)
        assert bank.observed_fault_ratio() == pytest.approx(1e-3, rel=0.3)

    def test_paper_default_ratio(self):
        bank = MemoryBank(VENDOR_A, rng())
        assert bank.fault_ratio == pytest.approx(1.0 / 570e6)


class TestMemoryBankEcc:
    def test_ecc_corrects_everything(self):
        bank = MemoryBank(VENDOR_C, rng(), fault_ratio=0.01)
        uncorrected = bank.perform_page_ops(10_000, time=0.0)
        assert uncorrected == 0
        assert bank.corrected_fault_count > 0
        assert bank.uncorrected_fault_count == 0

    def test_ecc_still_logs_for_ablation(self):
        bank = MemoryBank(VENDOR_C, rng(), fault_ratio=0.01)
        bank.perform_page_ops(10_000, time=5.0)
        assert all(f.corrected for f in bank.faults)
        assert all(f.time == 5.0 for f in bank.faults)


class TestMemoryValidation:
    def test_negative_count_rejected(self):
        bank = MemoryBank(VENDOR_A, rng())
        with pytest.raises(ValueError):
            bank.perform_page_ops(-1, time=0.0)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            MemoryBank(VENDOR_A, rng(), fault_ratio=1.5)

    def test_ratio_before_ops_is_none(self):
        bank = MemoryBank(VENDOR_A, rng())
        assert bank.observed_fault_ratio() is None


class TestPowerSupply:
    def test_wall_power_includes_conversion_loss(self):
        psu = PowerSupply(rated_w=300.0, efficiency=0.8)
        assert psu.wall_power_w(80.0) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSupply(efficiency=0.0)
        with pytest.raises(ValueError):
            PowerSupply(rated_w=-1.0)
        with pytest.raises(ValueError):
            PowerSupply().wall_power_w(-5.0)
