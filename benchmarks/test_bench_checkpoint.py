"""P1 -- checkpoint cost: flush and restore overhead vs horizon length.

The resumable-sweep contract only pays off if a checkpoint flush is
cheap next to the simulation it protects.  This benchmark advances one
campaign through four horizons and, at each, measures the wall cost of
simulating the segment, of one *full* checkpoint flush (snapshot +
atomic write), of one *delta* flush through the chain the campaign
actually writes (:class:`DeltaCheckpointWriter`), and of one restore
from the delta cut.  It asserts:

- the delta flush stays under 5 % of the stepping time between flushes
  at the default 14-day resumable-sweep cadence, and
- delta cut sizes are horizon-flat: once the fleet is fully installed
  (from day ~22), a cut costs bytes proportional to the cadence
  interval, not the campaign length.  Full snapshots keep growing with
  the horizon -- the JSON shows both so the contrast is on record.

The figures land in ``BENCH_checkpoint.json`` at the repo root.

Also runnable standalone, without pytest:
``PYTHONPATH=src python benchmarks/test_bench_checkpoint.py``.
"""

import datetime as dt
import json
import os
import tempfile
import time

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.sim.clock import DAY
from repro.state.checkpoint import (
    DeltaCheckpointWriter,
    read_checkpoint,
    write_checkpoint,
)

SEED = 7
#: The default resumable-sweep cadence (``DEFAULT_CHECKPOINT_EVERY_S``).
CADENCE_DAYS = 14
#: Campaign-days past the prototype weekend at which cost is sampled.
#: The horizons are one cadence apart, so each delta cut covers exactly
#: one 14-day interval; the last two intervals run at full fleet size.
HORIZON_DAYS = (7, 21, 35, 49)
BUDGET_PCT = 5.0
#: Delta cuts over identical-shape intervals must stay within this
#: factor of each other (the content is deterministic; the headroom
#: covers future model changes, not noise).
FLAT_FACTOR = 1.35
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_checkpoint.json")


def _timed(fn, rounds=3):
    """Best-of-``rounds`` wall time for ``fn`` (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def profile_checkpoint_cost():
    """Advance one campaign through the horizons, costing each layer."""
    config = ExperimentConfig(seed=SEED)
    campaign = CampaignBuilder(config).build()
    tmpdir = tempfile.mkdtemp(prefix="bench-ck-")
    writer = DeltaCheckpointWriter()
    points = []
    for index, days in enumerate(HORIZON_DAYS):
        until = config.prototype_end + dt.timedelta(days=days)
        sim_before = campaign.sim.now
        wall_start = time.perf_counter()
        if index == 0:
            campaign.run(until=until)
        else:
            campaign.continue_run(until=until)
        segment_wall_s = time.perf_counter() - wall_start
        segment_sim_days = (campaign.sim.now - sim_before) / DAY
        wall_per_sim_day = segment_wall_s / segment_sim_days

        full_path = os.path.join(tmpdir, f"full_{days:03d}d.json")
        full_s = _timed(lambda: write_checkpoint(full_path, campaign.checkpoint()))

        # The chain cut the campaign's own cadence would write: the
        # first is a full base, later ones diff against the previous
        # horizon's cut.  Re-writing would advance the chain, so each
        # timing round restores the writer to the pre-cut chain state.
        delta_path = os.path.join(tmpdir, f"checkpoint_{days:03d}d.json")
        chain_state = dict(writer.__dict__)

        def delta_flush():
            writer.__dict__.update(chain_state)
            with writer.memo:
                snapshot = campaign.checkpoint()
            assert writer.write(delta_path, snapshot)

        delta_s = _timed(delta_flush)
        restore_s = _timed(lambda: Campaign.restore(read_checkpoint(delta_path)))
        points.append(
            {
                "horizon_days": days,
                "segment_sim_days": round(segment_sim_days, 3),
                "segment_wall_s": round(segment_wall_s, 4),
                "wall_s_per_sim_day": round(wall_per_sim_day, 5),
                "flush_s": round(delta_s, 5),
                "full_flush_s": round(full_s, 5),
                "restore_s": round(restore_s, 5),
                "checkpoint_bytes": os.path.getsize(delta_path),
                "full_checkpoint_bytes": os.path.getsize(full_path),
                # One flush per cadence interval, against the stepping
                # cost of that same interval.
                "overhead_pct_at_cadence": round(
                    100.0 * delta_s / (wall_per_sim_day * CADENCE_DAYS), 3
                ),
            }
        )
    return {
        "seed": SEED,
        "cadence_days": CADENCE_DAYS,
        "budget_pct": BUDGET_PCT,
        "flat_factor": FLAT_FACTOR,
        "points": points,
        "worst_overhead_pct": max(p["overhead_pct_at_cadence"] for p in points),
    }


def _emit(report):
    with open(OUTPUT, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check(report):
    assert report["worst_overhead_pct"] < BUDGET_PCT, (
        f"checkpoint overhead {report['worst_overhead_pct']:.2f}% "
        f"exceeds the {BUDGET_PCT}% budget"
    )
    # Horizon-flatness: the last two cuts cover identical 14-day
    # full-fleet intervals, so their delta sizes must match up to
    # FLAT_FACTOR while the full snapshots keep growing.
    last, prev = report["points"][-1], report["points"][-2]
    ratio = last["checkpoint_bytes"] / prev["checkpoint_bytes"]
    assert ratio < FLAT_FACTOR, (
        f"delta checkpoint bytes grew {ratio:.2f}x across one cadence "
        f"interval at constant fleet size (limit {FLAT_FACTOR}x)"
    )
    assert last["checkpoint_bytes"] < last["full_checkpoint_bytes"], (
        "a delta cut should be smaller than the full snapshot it replaces"
    )


def test_bench_checkpoint_overhead(benchmark):
    from conftest import record

    report = benchmark.pedantic(profile_checkpoint_cost, rounds=1, iterations=1)
    _emit(report)
    worst = report["points"][-1]
    record(
        benchmark,
        checkpoint_bytes=worst["checkpoint_bytes"],
        full_checkpoint_bytes=worst["full_checkpoint_bytes"],
        flush_s=worst["flush_s"],
        restore_s=worst["restore_s"],
        worst_overhead_pct=report["worst_overhead_pct"],
        budget_pct=BUDGET_PCT,
    )
    _check(report)


if __name__ == "__main__":
    result = profile_checkpoint_cost()
    _emit(result)
    print(json.dumps(result, indent=2, sort_keys=True))
    _check(result)
    print(f"OK: worst overhead {result['worst_overhead_pct']:.2f}% "
          f"< {BUDGET_PCT}% budget; wrote {os.path.abspath(OUTPUT)}")
