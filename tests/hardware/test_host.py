"""Tests for the composite Host model."""

import pytest

from repro.climate.generator import WeatherGenerator
from repro.climate.profiles import HELSINKI_2010
from repro.hardware.faults import FaultKind, FaultLog, TransientFaultModel
from repro.hardware.host import Host, HostState
from repro.hardware.vendors import VENDOR_A, VENDOR_B, VENDOR_C
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.thermal.enclosure import BasementMachineRoom


@pytest.fixture
def basement():
    weather = WeatherGenerator(HELSINKI_2010, RngStreams(1))
    room = BasementMachineRoom("basement", weather)
    room.advance(SimClock().at(2010, 2, 19))
    return room


def make_host(host_id=1, spec=VENDOR_A, seed=5, **kwargs):
    return Host(host_id, spec, RngStreams(seed), **kwargs)


class TestLifecycle:
    def test_starts_staged(self):
        host = make_host()
        assert host.state is HostState.STAGED
        assert not host.running

    def test_install_powers_on(self, basement):
        host = make_host()
        host.install(basement, time=100.0)
        assert host.running
        assert host.installed_at == 100.0
        assert host.enclosure is basement

    def test_reset_requires_failed_state(self, basement):
        host = make_host()
        host.install(basement, 0.0)
        with pytest.raises(RuntimeError):
            host.reset(1.0)

    def test_retired_host_cannot_be_reinstalled(self, basement):
        host = make_host()
        host.install(basement, 0.0)
        host.retire(10.0)
        with pytest.raises(RuntimeError):
            host.install(basement, 20.0)

    def test_move_to_requires_prior_install(self, basement):
        host = make_host()
        with pytest.raises(RuntimeError):
            host.move_to(basement, 0.0)

    def test_move_to_keeps_original_install_time(self, basement):
        host = make_host()
        host.install(basement, 100.0)
        other = basement  # same type; identity is what matters
        host.move_to(other, 200.0)
        assert host.installed_at == 100.0

    def test_event_log_narrates(self, basement):
        host = make_host()
        host.install(basement, 0.0)
        host.warm_reboot(5.0)
        notes = [note for _t, note in host.event_log]
        assert any("installed" in n for n in notes)
        assert any("warm reboot" in n for n in notes)

    def test_hostname_format(self):
        assert make_host(host_id=3).hostname == "host03"
        assert make_host(host_id=15).hostname == "host15"


class TestPower:
    def test_no_draw_before_install(self):
        assert make_host().power_w == 0.0

    def test_idle_and_busy_draw(self, basement):
        host = make_host()
        host.install(basement, 0.0)
        assert host.power_w == VENDOR_A.idle_power_w
        host.cpu.busy = True
        assert host.power_w == VENDOR_A.active_power_w

    def test_average_power_between_extremes(self, basement):
        host = make_host()
        host.install(basement, 0.0)
        assert VENDOR_A.idle_power_w < host.average_power_w < VENDOR_A.active_power_w


class TestThermal:
    def test_cpu_warmer_than_case_warmer_than_intake(self, basement):
        host = make_host()
        host.install(basement, 0.0)
        assert host.cpu_temp_c() > host.case_temp_c() > host.intake_temp_c()

    def test_vendor_b_runs_hotter_than_a(self, basement):
        a = make_host(host_id=1, spec=VENDOR_A)
        b = make_host(host_id=14, spec=VENDOR_B)
        a.install(basement, 0.0)
        b.install(basement, 0.0)
        # Same intake: the SFF's bad airflow shows in case temperature.
        assert b.case_temp_c() > a.case_temp_c()

    def test_thermal_queries_require_enclosure(self):
        with pytest.raises(RuntimeError):
            make_host().intake_temp_c()

    def test_sensor_poll_reads_cpu_temperature(self, basement):
        host = make_host()
        host.install(basement, 0.0)
        reading = host.sensor_poll(time=10.0)
        assert reading == pytest.approx(host.cpu_temp_c(), abs=2.0)
        assert host.sensor.history[-1].cpu_temp_c == reading


class TestTick:
    def test_tick_accrues_uptime(self, basement):
        host = make_host(transient_model=TransientFaultModel(base_rate_per_hour=0.0))
        host.install(basement, 0.0)
        host.tick(300.0, 300.0)
        host.tick(300.0, 600.0)
        assert host.uptime_s == 600.0

    def test_tick_on_staged_host_is_noop(self):
        host = make_host()
        host.tick(300.0, 0.0)
        assert host.uptime_s == 0.0

    def test_guaranteed_hazard_fails_host(self, basement):
        model = TransientFaultModel(base_rate_per_hour=1e9)
        log = FaultLog()
        host = make_host(transient_model=model)
        host.install(basement, 0.0)
        host.tick(300.0, 300.0, log)
        assert host.state is HostState.FAILED
        assert not host.cpu.busy
        assert log.of_kind(FaultKind.TRANSIENT_SYSTEM)[0].host_id == host.host_id

    def test_failed_host_recovers_after_reset(self, basement):
        model = TransientFaultModel(base_rate_per_hour=1e9)
        host = make_host(transient_model=model)
        host.install(basement, 0.0)
        host.tick(300.0, 300.0)
        host.transient_model.base_rate_per_hour = 0.0
        host.reset(600.0)
        assert host.running
        assert host.reset_count == 1

    def test_storage_loss_fails_host_with_disk_kind(self, basement):
        log = FaultLog()
        host = make_host(
            host_id=14, spec=VENDOR_B,
            transient_model=TransientFaultModel(base_rate_per_hour=0.0),
        )
        host.install(basement, 0.0)
        host.storage.disks[0].fail(100.0)
        host.tick(300.0, 300.0, log)
        assert host.state is HostState.FAILED
        assert log.of_kind(FaultKind.DISK)


class TestMemtest:
    def test_frail_defective_host_fails_memtest(self, basement):
        model = TransientFaultModel(defective_rate_per_hour=0.5, frailty_sigma=0.0)
        host = make_host(host_id=15, spec=VENDOR_B, transient_model=model)
        host.install(basement, 0.0)
        # rate 0.5/h x stress 6 x 4h -> P(fail) ~ 1 - e^-12.
        assert not host.run_memtest(4.0, time=10.0)

    def test_sound_host_passes_memtest(self, basement):
        model = TransientFaultModel(base_rate_per_hour=0.0, frailty_sigma=0.0)
        host = make_host(transient_model=model)
        host.install(basement, 0.0)
        assert host.run_memtest(4.0, time=10.0)

    def test_negative_duration_rejected(self, basement):
        host = make_host()
        with pytest.raises(ValueError):
            host.run_memtest(-1.0, time=0.0)


class TestDeterminism:
    def test_same_seed_same_frailty(self):
        assert make_host(seed=9).frailty == make_host(seed=9).frailty

    def test_different_hosts_different_frailty(self):
        streams = RngStreams(9)
        a = Host(1, VENDOR_A, streams)
        b = Host(2, VENDOR_A, streams)
        assert a.frailty != b.frailty


class TestBootSequence:
    def test_begin_boot_darkens_the_host(self, basement):
        model = TransientFaultModel(base_rate_per_hour=1e9, defective_rate_per_hour=1e9)
        host = make_host(transient_model=model)
        host.install(basement, 0.0)
        host.tick(300.0, 300.0)
        assert host.state is HostState.FAILED
        host.begin_boot(400.0)
        assert host.state is HostState.BOOTING
        assert not host.running
        assert host.power_w == 0.0

    def test_finish_boot_restores_service(self, basement):
        host = make_host(transient_model=TransientFaultModel(base_rate_per_hour=0.0))
        host.install(basement, 0.0)
        host.begin_boot(100.0)  # deliberate restart from RUNNING
        host.finish_boot(340.0)
        assert host.running

    def test_reset_counts_only_failure_recoveries(self, basement):
        host = make_host(transient_model=TransientFaultModel(base_rate_per_hour=0.0))
        host.install(basement, 0.0)
        host.begin_boot(100.0)  # restart, not a failure reset
        host.finish_boot(340.0)
        assert host.reset_count == 0

    def test_booting_host_does_not_tick(self, basement):
        host = make_host(transient_model=TransientFaultModel(base_rate_per_hour=0.0))
        host.install(basement, 0.0)
        host.begin_boot(100.0)
        host.tick(300.0, 400.0)
        assert host.uptime_s == 0.0

    def test_boot_from_staged_rejected(self):
        host = make_host()
        with pytest.raises(RuntimeError):
            host.begin_boot(0.0)

    def test_finish_without_begin_rejected(self, basement):
        host = make_host()
        host.install(basement, 0.0)
        with pytest.raises(RuntimeError):
            host.finish_boot(0.0)
