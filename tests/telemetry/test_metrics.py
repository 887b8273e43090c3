"""Tests for the metrics registry primitives."""

import pickle

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("rounds")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("rounds").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        hist = Histogram("h", bounds=(1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 99.0):
            hist.observe(value)
        # <=1.0 gets 0.5 and 1.0; <=5.0 gets 3.0; +Inf gets 99.0
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(103.5)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(5.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_name_cannot_span_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_len_counts_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3

    def test_registry_pickles(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter_value("a") == 3
        assert clone.histogram("h").count == 1


class TestMerge:
    def test_counters_add_gauges_max_histograms_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(7.0)
        b.gauge("g").set(4.0)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(1.0,)).observe(2.0)
        a.merge(b)
        assert a.counter_value("c") == 5
        assert a.gauge("g").value == 7.0
        assert a.histogram("h").bucket_counts == [1, 1]
        assert a.histogram("h").sum == pytest.approx(2.5)

    def test_merge_brings_in_unknown_metrics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("only-b").inc(9)
        b.gauge("g").set(-3.0)
        a.merge(b)
        assert a.counter_value("only-b") == 9
        # A gauge new to the target keeps its value even when negative
        # (max against a default 0.0 would be wrong).
        assert a.gauge("g").value == -3.0

    def test_mismatched_histogram_bounds_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0,))
        b.histogram("h", bounds=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)


class TestExposition:
    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        clone = MetricsRegistry.from_json_dict(registry.to_json_dict())
        assert clone.to_json_dict() == registry.to_json_dict()

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"counters": []},
            {"gauges": [["g", 1.0]]},
            {"histograms": []},
            {"histograms": {"h": [1.0]}},
            {"histograms": {"h": {"bounds": [1.0], "bucket_counts": [0], "sum": 0.0, "count": 0}}},
        ],
        ids=["top", "counters", "gauges", "histograms", "histogram", "bucket-count"],
    )
    def test_wrong_shapes_raise_value_error(self, data):
        with pytest.raises(ValueError):
            MetricsRegistry.from_json_dict(data)

    def test_prometheus_text_families(self):
        registry = MetricsRegistry()
        registry.counter("monitoring.rounds").inc(324)
        registry.gauge("engine.pending_at_end").set(26.0)
        hist = registry.histogram("monitoring.round_hosts", bounds=(1.0, 5.0))
        hist.observe(0.0)
        hist.observe(3.0)
        hist.observe(50.0)
        text = registry.to_prometheus_text()
        assert "# TYPE repro_monitoring_rounds_total counter" in text
        assert "repro_monitoring_rounds_total 324" in text
        assert "# TYPE repro_engine_pending_at_end gauge" in text
        # Buckets are cumulative and end with +Inf == count.
        assert 'repro_monitoring_round_hosts_bucket{le="1"} 1' in text
        assert 'repro_monitoring_round_hosts_bucket{le="5"} 2' in text
        assert 'repro_monitoring_round_hosts_bucket{le="+Inf"} 3' in text
        assert "repro_monitoring_round_hosts_count 3" in text

    def test_empty_registry_exposes_nothing(self):
        assert MetricsRegistry().to_prometheus_text() == ""
