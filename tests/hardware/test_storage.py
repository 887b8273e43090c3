"""Tests for disks and RAID layouts."""

import math

import numpy as np
import pytest

from repro.hardware.storage import (
    Disk,
    HardwareMirror,
    MdSoftwareMirror,
    SingleDisk,
    StorageSubsystem,
    StripeWithParity,
)
from repro.hardware.vendors import VENDOR_A, VENDOR_B, VENDOR_C
from repro.sim.rng import RngStreams


def rng():
    return np.random.default_rng(7)


def disks(n):
    return [Disk(f"sd{chr(ord('a') + i)}") for i in range(n)]


def lone_drive(generator=None):
    """A single-drive subsystem (vendor B) and its drive."""
    sub = StorageSubsystem("host14", VENDOR_B, generator if generator is not None else rng())
    return sub, sub.disks[0]


class TestDisk:
    def test_fresh_disk_is_healthy(self):
        disk = Disk("sda")
        assert disk.healthy
        assert disk.failed_at is None

    def test_fail_records_time(self):
        disk = Disk("sda")
        disk.fail(42.0)
        assert not disk.healthy
        assert disk.failed_at == 42.0

    def test_tick_accrues_smart_uptime(self):
        sub, disk = lone_drive()
        sub.tick(3600.0, case_temp_c=30.0, time=0.0)
        assert disk.smart.attribute(9).raw == pytest.approx(1.0)

    def test_failed_disk_stops_accruing(self):
        sub, disk = lone_drive()
        disk.fail(0.0)
        sub.tick(3600.0, 30.0, 1.0)
        assert disk.smart.attribute(9).raw == 0.0

    def test_drive_runs_warmer_than_case(self):
        sub, disk = lone_drive()
        sub.tick(60.0, case_temp_c=30.0, time=0.0)
        assert disk.smart.attribute(194).raw > 30.0

    def test_self_test_tracks_media(self):
        disk = Disk("sda")
        assert disk.run_long_self_test(0.0).passed
        disk.fail(1.0)
        assert not disk.run_long_self_test(2.0).passed

    def test_survives_a_campaign_statistically(self):
        # 500k-hour MTBF: ~90 days of uptime should essentially never kill
        # a batch of 50 drives under a fixed seed.
        failures = 0
        for i in range(50):
            sub, disk = lone_drive(np.random.default_rng(i))
            for day in range(90):
                sub.tick(86_400.0, 25.0, float(day))
            failures += not disk.healthy
        assert failures <= 2


class TestMirrors:
    def test_mirror_survives_one_loss(self):
        members = disks(2)
        array = MdSoftwareMirror("md0", members)
        members[0].fail(0.0)
        assert array.operational
        assert array.degraded
        assert array.status() == "degraded"

    def test_mirror_dies_with_both(self):
        members = disks(2)
        array = MdSoftwareMirror("md0", members)
        for d in members:
            d.fail(0.0)
        assert not array.operational
        assert array.status() == "failed"

    def test_hardware_mirror_same_semantics(self):
        members = disks(2)
        array = HardwareMirror("sys", members)
        members[1].fail(0.0)
        assert array.operational

    def test_too_few_members_rejected(self):
        with pytest.raises(ValueError):
            MdSoftwareMirror("md0", disks(1))


class TestStripeWithParity:
    def test_survives_one_of_three(self):
        members = disks(3)
        array = StripeWithParity("data", members)
        members[0].fail(0.0)
        assert array.operational and array.degraded

    def test_dies_with_two(self):
        members = disks(3)
        array = StripeWithParity("data", members)
        members[0].fail(0.0)
        members[1].fail(0.0)
        assert not array.operational


class TestSingleDisk:
    def test_any_loss_is_fatal(self):
        members = disks(1)
        array = SingleDisk("sda", members)
        members[0].fail(0.0)
        assert not array.operational


class TestStorageSubsystem:
    def test_vendor_a_builds_md_mirror(self):
        sub = StorageSubsystem("host01", VENDOR_A, rng())
        assert len(sub.disks) == 2
        assert isinstance(sub.arrays[0], MdSoftwareMirror)

    def test_vendor_b_builds_single_disk(self):
        sub = StorageSubsystem("host14", VENDOR_B, rng())
        assert len(sub.disks) == 1
        assert isinstance(sub.arrays[0], SingleDisk)

    def test_vendor_c_builds_mirror_plus_raid5(self):
        sub = StorageSubsystem("host11", VENDOR_C, rng())
        assert len(sub.disks) == 5
        assert isinstance(sub.arrays[0], HardwareMirror)
        assert isinstance(sub.arrays[1], StripeWithParity)
        assert len(sub.arrays[0].members) == 2
        assert len(sub.arrays[1].members) == 3

    def test_vendor_c_tolerates_one_loss_per_array(self):
        sub = StorageSubsystem("host11", VENDOR_C, rng())
        sub.disks[0].fail(0.0)  # mirror member
        sub.disks[2].fail(0.0)  # stripe member
        assert sub.operational and sub.degraded

    def test_vendor_b_loss_kills_storage(self):
        sub = StorageSubsystem("host14", VENDOR_B, rng())
        sub.disks[0].fail(0.0)
        assert not sub.operational

    def test_self_tests_all_pass_when_healthy(self):
        sub = StorageSubsystem("host01", VENDOR_A, rng())
        assert sub.run_long_self_tests(time=0.0)

    def test_power_cycle_reaches_every_disk(self):
        sub = StorageSubsystem("host11", VENDOR_C, rng())
        sub.record_power_cycle()
        assert all(d.smart.attribute(12).raw == 1 for d in sub.disks)

    def test_disk_serials_are_distinct(self):
        sub = StorageSubsystem("host11", VENDOR_C, rng())
        serials = [d.serial for d in sub.disks]
        assert len(set(serials)) == 5


class TestStorageTickDraws:
    """``StorageSubsystem.tick`` shares one hazard per tick but keeps one
    scalar draw per healthy drive, in member order."""

    HOT_CASE_C = 60.0
    DT_S = 600.0

    def test_one_draw_per_healthy_drive(self):
        generator = rng()
        sub = StorageSubsystem("host11", VENDOR_C, generator)
        sub.disks[1].fail(0.0)
        twin = rng()
        sub.tick(self.DT_S, self.HOT_CASE_C, time=1.0)
        for _ in range(4):
            twin.random()
        assert generator.bit_generator.state == twin.bit_generator.state

    def test_drives_fail_exactly_where_the_draw_is_below_the_hazard(self):
        sub = StorageSubsystem("host11", VENDOR_C, rng())
        sub.disks[1].fail(0.0)
        for disk in sub.disks:
            disk._rate_per_hour = 3.0
        rate = 3.0 * 2.0 ** ((self.HOT_CASE_C - 45.0) / 15.0)
        p_fail = 1.0 - math.exp(-rate * self.DT_S / 3600.0)
        twin = rng()
        draws = [twin.random() for _ in range(4)]
        sub.tick(self.DT_S, self.HOT_CASE_C, time=5.0)
        healthy_before = [0, 2, 3, 4]
        expected = {i for i, u in zip(healthy_before, draws) if u < p_fail}
        assert 0 < len(expected) < 4  # the seed exercises both outcomes
        failed_now = {i for i in healthy_before if not sub.disks[i].healthy}
        assert failed_now == expected
        assert all(sub.disks[i].failed_at == 5.0 for i in expected)
        assert sub.disks[1].failed_at == 0.0

    def test_tick_matches_scalar_draws(self):
        # A served stream gives the tick the same draws, failures and
        # S.M.A.R.T. values as scalar draws of a plain generator, worked
        # through by hand in member order.
        served = RngStreams(7).uniforms("storage")
        plain = RngStreams(7).stream("storage")
        sub = StorageSubsystem("host11", VENDOR_C, served)
        rates = [0.05, 0.05, 0.05, 0.2, 0.05]
        for disk, rate in zip(sub.disks, rates):
            disk._rate_per_hour = rate
        hours = [0.0] * len(rates)
        temps = [0.0] * len(rates)
        failed_at = [None] * len(rates)
        for step in range(20):
            temp = 40.0 + step
            sub.tick(self.DT_S, temp, float(step))
            heat = 2.0 ** ((temp - 45.0) / 15.0) if temp > 45.0 else 1.0
            for i, rate in enumerate(rates):
                if failed_at[i] is None:
                    p_fail = 1.0 - math.exp(-rate * heat * self.DT_S / 3600.0)
                    hours[i] += self.DT_S / 3600.0
                    temps[i] = temp + 4.0
                    if plain.random() < p_fail:
                        failed_at[i] = float(step)
        assert [d.failed_at for d in sub.disks] == failed_at
        assert [d.smart.attribute(9).raw for d in sub.disks] == hours
        assert [d.smart.attribute(194).raw for d in sub.disks] == temps
        assert 0 < sum(t is not None for t in failed_at) < len(rates)
        assert served.position() == plain.bit_generator.state
