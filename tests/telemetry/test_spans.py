"""Tests for span tracing, the telemetry hub's state, and the stopwatch."""

import json
import pickle

import pytest

from repro.telemetry.hub import Telemetry
from repro.telemetry.spans import SpanTracer, Stopwatch


class TestSpanTracer:
    def test_record_aggregates_per_label(self):
        tracer = SpanTracer()
        tracer.record("a", 0.5)
        tracer.record("a", 1.5)
        tracer.record("b", 0.1)
        stats = tracer.stats("a")
        assert stats.count == 2
        assert stats.total_s == pytest.approx(2.0)
        assert stats.min_s == pytest.approx(0.5)
        assert stats.max_s == pytest.approx(1.5)
        assert stats.mean_s == pytest.approx(1.0)
        assert tracer.counts() == {"a": 2, "b": 1}

    def test_span_context_manager_times_block(self):
        tracer = SpanTracer()
        with tracer.span("work"):
            pass
        assert tracer.stats("work").count == 1
        assert tracer.stats("work").total_s >= 0.0

    def test_span_records_even_when_block_raises(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.stats("boom").count == 1

    def test_hottest_orders_by_count_then_label(self):
        tracer = SpanTracer()
        tracer.record("b", 0.1)
        tracer.record("a", 0.1)
        tracer.record("a", 0.1)
        tracer.record("c", 0.1)
        labels = [s.label for s in tracer.hottest(2)]
        assert labels == ["a", "b"]

    def test_slowest_orders_by_max(self):
        tracer = SpanTracer()
        tracer.record("fast", 0.001)
        tracer.record("slow", 2.0)
        assert [s.label for s in tracer.slowest(1)] == ["slow"]

    def test_merge_folds_aggregates(self):
        a, b = SpanTracer(), SpanTracer()
        a.record("x", 1.0)
        b.record("x", 3.0)
        b.record("y", 0.5)
        a.merge(b)
        assert a.stats("x").count == 2
        assert a.stats("x").max_s == pytest.approx(3.0)
        assert a.stats("y").count == 1


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as watch:
            pass
        assert watch.elapsed_s >= 0.0

    def test_reusable(self):
        watch = Stopwatch()
        with watch:
            pass
        first = watch.elapsed_s
        with watch:
            pass
        assert watch.elapsed_s >= 0.0
        assert first >= 0.0


class TestHubCounterDelegate:
    def test_counter_reaches_the_registry(self):
        hub = Telemetry()
        hub.counter("runner.retries").inc(3)
        assert hub.counter("runner.retries") is hub.metrics.counter("runner.retries")
        assert hub.metrics.to_json_dict()["counters"] == {"runner.retries": 3}


class TestSnapshot:
    """The hub's one state form: copy, equality, pickling, and merge."""

    def make_hub(self):
        hub = Telemetry()
        hub.metrics.counter("c").inc(2)
        hub.metrics.gauge("g").set(5.0)
        hub.metrics.histogram("h", bounds=(1.0,)).observe(0.5)
        hub.spans.record("engine.tick", 0.25)
        return hub

    def test_snapshot_freezes_state(self):
        hub = self.make_hub()
        copy = Telemetry.from_state_dict(hub.state_dict())
        hub.metrics.counter("c").inc()
        hub.spans.record("engine.tick", 1.0)
        assert copy.metrics.counter_value("c") == 2
        assert copy.spans.stats("engine.tick").count == 1
        assert copy.spans.stats("engine.tick").total_s == pytest.approx(0.25)

    def test_copy_of_a_tracer_subclass_is_a_plain_tracer(self):
        class Subclass(SpanTracer):
            pass

        traced = Telemetry()
        traced.spans = Subclass()
        traced.spans.record("engine.tick", 0.25)
        copy = Telemetry.from_state_dict(traced.state_dict())
        assert type(copy.spans) is SpanTracer
        assert copy == traced

    def test_equality_ignores_wall_time(self):
        a = self.make_hub()
        unequal = self.make_hub()
        unequal.spans.record("engine.tick", 10.0)  # wall differs, count differs
        assert a != unequal  # counts differ -> unequal
        b = self.make_hub()
        b.spans.stats("engine.tick").total_s = 99.0
        b.spans.stats("engine.tick").max_s = 99.0
        assert a == b  # only wall differs -> equal
        assert a.deterministic_dict() == b.deterministic_dict()
        assert a.state_dict() != b.state_dict()

    def test_equality_sees_every_deterministic_field(self):
        base = self.make_hub()
        for mutate in (
            lambda hub: hub.metrics.counter("c").inc(),
            lambda hub: hub.metrics.gauge("g").set(6.0),
            lambda hub: hub.metrics.histogram("h").observe(2.0),
            lambda hub: hub.spans.record("engine.other", 0.0),
        ):
            hub = self.make_hub()
            mutate(hub)
            assert hub != base

    def test_snapshot_pickles_and_round_trips_json(self):
        hub = self.make_hub()
        unpickled = pickle.loads(pickle.dumps(hub))
        assert unpickled == hub
        assert unpickled.state_dict() == hub.state_dict()
        clone = Telemetry.from_state_dict(json.loads(json.dumps(hub.state_dict())))
        assert clone == hub
        assert clone.state_dict() == hub.state_dict()

    def test_merge_adds_counts_and_wall(self):
        merged, higher = self.make_hub(), self.make_hub()
        higher.metrics.gauge("g").set(9.0)
        merged.merge(higher)
        assert merged.metrics.counter_value("c") == 4
        assert merged.spans.stats("engine.tick").count == 2
        assert merged.spans.stats("engine.tick").total_s == pytest.approx(0.5)
        assert merged.metrics.gauge("g").value == 9.0
        hist = merged.metrics.histogram("h")
        assert hist.bucket_counts == [2, 0]
        assert hist.sum == pytest.approx(1.0)
        merged.merge(self.make_hub())  # a lower gauge never wins
        assert merged.metrics.gauge("g").value == 9.0

    def test_histogram_bounds_mismatch_rejected(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.histogram("h", bounds=(1.0,)).observe(0.5)
        b.metrics.histogram("h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)


class TestTelemetryHub:
    def test_prometheus_text_includes_spans(self):
        hub = Telemetry()
        hub.metrics.counter("c").inc()
        hub.spans.record("engine.tick", 0.5)
        text = hub.to_prometheus_text()
        assert 'repro_span_fired_total{label="engine.tick"} 1' in text
        assert 'repro_span_wall_seconds_total{label="engine.tick"}' in text

    def test_json_dict_has_schema_and_spans(self):
        hub = Telemetry()
        hub.spans.record("engine.tick", 0.5)
        data = hub.to_json_dict()
        assert data["schema"] == 1
        assert data["spans"]["engine.tick"]["count"] == 1

    def test_hub_merge(self):
        a, b = Telemetry(), Telemetry()
        a.metrics.counter("c").inc()
        b.metrics.counter("c").inc()
        b.spans.record("x", 1.0)
        a.merge(b)
        assert a.metrics.counter_value("c") == 2
        assert a.spans.stats("x").count == 1
