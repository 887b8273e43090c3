"""Tests for the Fig. 2 Gantt rendering and the engine trace hook."""

import pytest

from repro.analysis.asciiplot import render_fig2_gantt
from repro.analysis.figures import fig2_timeline
from repro.sim.engine import Simulator


class TestFig2Gantt:
    def test_one_row_per_tent_host(self, full_results):
        timeline = fig2_timeline(full_results)
        gantt = render_fig2_gantt(timeline, full_results.clock)
        rows = [line for line in gantt.splitlines() if line.startswith("host #")]
        assert len(rows) == len(timeline.rows)

    def test_replacement_annotated(self, full_results):
        timeline = fig2_timeline(full_results)
        gantt = render_fig2_gantt(timeline, full_results.clock)
        assert "(replaces #15)" in gantt

    def test_removed_host_marked(self, full_results):
        timeline = fig2_timeline(full_results)
        gantt = render_fig2_gantt(timeline, full_results.clock)
        host15_row = next(
            line for line in gantt.splitlines() if line.startswith("host #15")
        )
        assert "x" in host15_row
        assert "taken indoors" in host15_row

    def test_header_carries_dates(self, full_results):
        gantt = render_fig2_gantt(fig2_timeline(full_results), full_results.clock)
        header = gantt.splitlines()[0]
        assert "2010-02-19" in header

    def test_later_installs_start_further_right(self, full_results):
        timeline = fig2_timeline(full_results)
        gantt = render_fig2_gantt(timeline, full_results.clock, width=60)
        starts = {}
        for line in gantt.splitlines()[1:]:
            host_id = int(line[6:8])
            starts[host_id] = line.index("|")
        assert starts[1] < starts[10] < starts[18]

    def test_width_validated(self, full_results):
        with pytest.raises(ValueError):
            render_fig2_gantt(fig2_timeline(full_results), full_results.clock, width=5)


class TestEngineTrace:
    def test_trace_hook_sees_labels_in_order(self):
        sim = Simulator()
        sim.register("noop", lambda: None)
        trace = []
        sim.on_event = lambda t, label: trace.append((t, label))
        sim.schedule_key(10.0, "noop", label="first")
        sim.schedule_key(20.0, "noop", label="second")
        sim.run()
        assert trace == [(10.0, "first"), (20.0, "second")]

    def test_cancelled_events_not_traced(self):
        sim = Simulator()
        sim.register("noop", lambda: None)
        trace = []
        sim.on_event = lambda t, label: trace.append(label)
        handle = sim.schedule_key(10.0, "noop", label="gone")
        handle.cancel()
        sim.run()
        assert trace == []

    def test_no_hook_no_overhead(self):
        sim = Simulator()
        sim.register("noop", lambda: None)
        sim.schedule_key(1.0, "noop")
        sim.run()  # simply must not raise
        assert sim.events_fired == 1
