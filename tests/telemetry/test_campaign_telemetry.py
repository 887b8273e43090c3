"""End-to-end: telemetry threaded through a real (short) campaign."""

import datetime as dt
import io
import json

import pytest

from repro import ExperimentConfig
from repro.core.builder import CampaignBuilder
from repro.telemetry import JsonlRunLog, Telemetry

UNTIL = dt.datetime(2010, 2, 24)


@pytest.fixture(scope="module")
def telemetry_run():
    """One short campaign with the full telemetry plane attached."""
    telemetry = Telemetry()
    log = JsonlRunLog(io.StringIO(), wall_clock=lambda: 0.0)
    builder = (
        CampaignBuilder(ExperimentConfig(seed=7))
        .with_telemetry(telemetry)
        .with_subscriber(log.subscribe)
    )
    results = builder.build().run(until=UNTIL)
    return results, telemetry, log


class TestEngineSpans:
    def test_every_fired_event_is_traced(self, telemetry_run):
        results, telemetry, _ = telemetry_run
        fired = sum(
            count
            for label, count in telemetry.spans.counts().items()
            if label.startswith("engine.")
        )
        assert fired == results.fleet.sim.events_fired

    def test_known_labels_present(self, telemetry_run):
        results, telemetry, _ = telemetry_run
        counts = telemetry.spans.counts()
        assert counts["engine.collector"] > 0
        assert counts["engine.fleet-tick"] > 0
        assert counts["campaign.run"] == 1
        # The station fires no events: its 10-minute readings are taken
        # in batches, all the way to the horizon.
        times = results.station.times()
        assert len(times) > 0 and (times[1:] - times[:-1] == 600.0).all()
        assert times[-1] == results.end_time

    def test_results_expose_the_hub(self, telemetry_run):
        results, telemetry, _ = telemetry_run
        assert results.telemetry is telemetry


class TestMonitoringMetrics:
    def test_round_counters_match_archive(self, telemetry_run):
        results, telemetry, _ = telemetry_run
        rounds = results.monitoring.rounds
        metrics = telemetry.metrics
        assert metrics.counter_value("monitoring.rounds") == len(rounds)
        assert metrics.counter_value("monitoring.hosts_collected") == sum(
            len(r.collected_host_ids) for r in rounds
        )
        assert metrics.counter_value("monitoring.sensor_anomalies") == sum(
            len(r.sensor_anomaly_host_ids) for r in rounds
        )

    def test_round_span_matches_round_count(self, telemetry_run):
        results, telemetry, _ = telemetry_run
        stats = telemetry.spans.stats("monitoring.collect_round")
        assert stats.count == len(results.monitoring.rounds)

    def test_round_hosts_histogram_totals(self, telemetry_run):
        results, telemetry, _ = telemetry_run
        hist = telemetry.metrics.histogram("monitoring.round_hosts")
        assert hist.count == len(results.monitoring.rounds)


class TestRunGauges:
    def test_engine_state_frozen_into_gauges(self, telemetry_run):
        results, telemetry, _ = telemetry_run
        sim = results.fleet.sim
        metrics = telemetry.metrics
        assert metrics.gauge("engine.events_fired").value == float(sim.events_fired)
        assert metrics.gauge("engine.events_cancelled").value == float(
            sim.events_cancelled
        )
        assert metrics.gauge("engine.sim_end_s").value == float(results.end_time)

    def test_bus_tallies_copied_to_counters(self, telemetry_run):
        results, telemetry, _ = telemetry_run
        for name, count in results.bus.counts.items():
            assert telemetry.metrics.counter_value(f"bus.events.{name}") == count


class TestRunLogSink:
    def test_one_line_per_bus_event(self, telemetry_run):
        results, _, log = telemetry_run
        assert log.lines_written == len(results.events)

    def test_lines_parse_and_carry_sim_time(self, telemetry_run):
        _, _, log = telemetry_run
        lines = log._stream.getvalue().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert all("sim_time_s" in p and "wall_time_s" in p for p in parsed)
        assert any(p.get("host_id") is not None for p in parsed)


class TestZeroOverheadDefault:
    def test_default_build_has_no_telemetry(self):
        campaign = CampaignBuilder(ExperimentConfig(seed=7)).build()
        assert campaign.telemetry is None
        assert campaign.sim.tracer is None
        assert campaign.monitoring.telemetry is None

    def test_default_results_have_no_telemetry(self, short_results):
        assert short_results.telemetry is None
