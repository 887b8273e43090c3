"""P2 -- fleet throughput: batch mode vs the per-object event loop.

The two paths' perf targets, measured end to end:

- at the paper's own 19-host scale the batch fleet path
  (:class:`~repro.core.fleetscale.FleetScaleCampaign`, what
  ``repro run --hosts N`` drives) must be at least **10x** faster per
  simulated day than the faithful per-object discrete-event campaign
  (the default build), and
- scaling must stay near-linear: the wall cost *per host-day* at 100k
  hosts may not exceed the 1k-host cost (batch dispatch amortizes numpy
  overhead, so per-host cost should fall with scale, not rise), and a
  100k-host simulated day must complete in seconds, not minutes.

The per-object baseline is timed over a steady window (fleet fully
installed, mid-March) via ``continue_run``; the batch figures time
``step_days`` after a warm-up day so one-off build costs (cohort
layout, weather spin-up) are excluded from the steady-state rate.

The figures land in ``BENCH_fleet.json`` at the repo root.

Also runnable standalone, without pytest:
``PYTHONPATH=src python benchmarks/test_bench_fleet.py``.
"""

import datetime as dt
import json
import os
import time

from repro.core.builder import CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.core.fleetscale import FleetScaleCampaign
from repro.sim.clock import DAY

SEED = 7
#: Minimum batch-vs-faithful speedup at the paper's 19-host scale.
SPEEDUP_FLOOR = 10.0
#: Wall-clock ceiling for one simulated day at 100k hosts.
LARGE_FLEET_DAY_BUDGET_S = 10.0
#: Fleet sizes for the scaling curve (paper scale, 1k, 100k).
FLEET_SIZES = (19, 1_000, 100_000)
#: Simulated days per timed window (the 100k point uses a single day).
WINDOW_DAYS = {19: 3.0, 1_000: 3.0, 100_000: 1.0}
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_fleet.json")


def _object_baseline():
    """Steady-state wall cost per sim-day of the faithful campaign."""
    config = ExperimentConfig(seed=SEED)
    campaign = CampaignBuilder(config).build()
    # Mid-March: every install/modification plan has fired, so the
    # window measures the fleet the paper actually ran, at full size.
    steady_start = dt.datetime(2010, 3, 15, 12, 0)
    campaign.run(until=steady_start)
    sim_before = campaign.sim.now
    wall_start = time.perf_counter()
    campaign.continue_run(until=steady_start + dt.timedelta(days=3))
    wall = time.perf_counter() - wall_start
    return wall / ((campaign.sim.now - sim_before) / DAY)


def _batch_point(n_hosts):
    """Build + steady-state rate for one batch fleet size."""
    build_start = time.perf_counter()
    fleet = FleetScaleCampaign(n_hosts, ExperimentConfig(seed=SEED))
    build_s = time.perf_counter() - build_start
    fleet.step_days(1.0)  # warm-up: weather cache, numpy buffers
    window = WINDOW_DAYS[n_hosts]
    wall_start = time.perf_counter()
    fleet.step_days(window)
    wall = time.perf_counter() - wall_start
    summary = fleet.summary()
    assert summary["simulated_s"] >= (1.0 + window) * 86_400.0 - 1e-6
    per_day = wall / window
    return {
        "hosts": n_hosts,
        "build_s": round(build_s, 4),
        "window_days": window,
        "window_wall_s": round(wall, 4),
        "wall_s_per_sim_day": round(per_day, 5),
        "wall_us_per_host_day": round(1e6 * per_day / n_hosts, 3),
        "running_at_end": summary["running"],
        "transient_failures": summary["transient_failures"],
    }


def profile_fleet_throughput():
    object_per_day = _object_baseline()
    points = [_batch_point(n) for n in FLEET_SIZES]
    paper_scale = points[0]
    return {
        "seed": SEED,
        "speedup_floor": SPEEDUP_FLOOR,
        "object_wall_s_per_sim_day": round(object_per_day, 5),
        "batch_points": points,
        "speedup_at_paper_scale": round(
            object_per_day / paper_scale["wall_s_per_sim_day"], 2
        ),
        "large_fleet_day_budget_s": LARGE_FLEET_DAY_BUDGET_S,
    }


def _emit(report):
    with open(OUTPUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check(report):
    assert report["speedup_at_paper_scale"] >= SPEEDUP_FLOOR, (
        f"batch mode is only {report['speedup_at_paper_scale']:.1f}x the "
        f"faithful per-object campaign at 19 hosts (floor {SPEEDUP_FLOOR}x)"
    )
    small, large = report["batch_points"][1], report["batch_points"][-1]
    assert large["wall_us_per_host_day"] <= small["wall_us_per_host_day"], (
        f"per-host cost rose from {small['wall_us_per_host_day']} us at "
        f"{small['hosts']} hosts to {large['wall_us_per_host_day']} us at "
        f"{large['hosts']} hosts -- scaling is superlinear"
    )
    assert large["wall_s_per_sim_day"] < LARGE_FLEET_DAY_BUDGET_S, (
        f"a 100k-host simulated day took {large['wall_s_per_sim_day']:.2f} s "
        f"(budget {LARGE_FLEET_DAY_BUDGET_S} s)"
    )


def test_bench_fleet_throughput(benchmark):
    from conftest import record

    report = benchmark.pedantic(profile_fleet_throughput, rounds=1, iterations=1)
    _emit(report)
    large = report["batch_points"][-1]
    record(
        benchmark,
        object_wall_s_per_sim_day=report["object_wall_s_per_sim_day"],
        batch_wall_s_per_sim_day_19=report["batch_points"][0]["wall_s_per_sim_day"],
        batch_wall_s_per_sim_day_100k=large["wall_s_per_sim_day"],
        speedup_at_paper_scale=report["speedup_at_paper_scale"],
        speedup_floor=SPEEDUP_FLOOR,
    )
    _check(report)


if __name__ == "__main__":
    result = profile_fleet_throughput()
    _emit(result)
    print(json.dumps(result, indent=2, sort_keys=True))
    _check(result)
    print(f"OK: {result['speedup_at_paper_scale']:.1f}x >= {SPEEDUP_FLOOR}x at "
          f"paper scale; wrote {os.path.abspath(OUTPUT)}")
