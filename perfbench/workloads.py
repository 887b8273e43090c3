"""One benchmark workload, run in this (fresh) process.

``python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1
--scratch DIR`` runs one workload through the public API and prints one
JSON object as its last stdout line: calibrated and raw timings, the
output checks and, when traced, the per-layer figures.
``perfbench/run.py`` starts this in a child process per run, so peak
memory belongs to one workload; see ``perfbench/README.md`` for what
each workload is for.

The seed is the only input.  On the faithful path it becomes
``ExperimentConfig(seed=N)`` and the seed of the fan-fault storm; in
batch mode it picks the faulted pod and the storm seed.  The fault plans
and trip policy below are fixed text kept here, not imported from the
program.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

try:
    import repro
except ImportError:
    sys.exit("perfbench: cannot import repro; run from a checkout with src/")
if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"perfbench: repro imported from {repro.__file__}, not this checkout")

from repro.analysis.survival import SurvivalCensus  # noqa: E402
from repro.core.builder import Campaign, CampaignBuilder  # noqa: E402
from repro.core.config import ExperimentConfig  # noqa: E402
from repro.core.deployment import paper_install_plan  # noqa: E402
from repro.core.fleetscale import POD_SIZE, FleetScaleCampaign  # noqa: E402
from repro.plant.faults import PlantFaultPlan  # noqa: E402
from repro.plant.trip import ThermalTripPolicy  # noqa: E402
from repro.runner.records import record_from_results  # noqa: E402
from repro.sim.clock import DAY  # noqa: E402
from repro.state.checkpoint import read_checkpoint, write_checkpoint  # noqa: E402

from calibrate import SpeedProbe  # noqa: E402

#: Constructions per run; ``setup_s`` is their median.
SETUP_REPEATS = {"paper": 7, "paper-chaos-resume": 7, "fleet-100k-chaos": 5}

#: Faithful chaos: a scheduled CRAC outage, an intake blockage and a fan
#: failure inside the steady window (all hosts are in from day 22), plus
#: a seeded fan storm over the whole campaign.
CHAOS_PLAN = (
    "crac:outage@day30,repair=12h;"
    "intake:blockage@day45,repair=18h,severity=1.0;"
    "fan:failure@day60,pod=0,repair=8h;"
    "storm:fan:0.05,repair=6h,seed={seed}"
)
TRIP_POLICY = "trip=32,clear=27,shed=0.5+1.0,hold=1h,cooldown=6h"
CHECKPOINT_EVERY_S = 7 * DAY

#: Batch mode: 100,000 hosts (5,264 pods of 19) for ten simulated days.
#: The plan is dense enough that trips and sheds fire on every seed and
#: sparse enough that hazards, thermal and workload keep most of a frame.
FLEET_HOSTS = 100_000
FLEET_DAYS = 10
FLEET_PLAN = (
    "crac:outage@day1,repair=12h;"
    "intake:blockage@day2,repair=18h,severity=1.0;"
    "fan:failure@day3,pod={pod},repair=8h;"
    "storm:fan:0.01,repair=6h,seed={seed}"
)


class Run:
    """Timings, checks and counters of one workload run."""

    def __init__(self, workload: str, seed: int, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.checks = []
        self.counts = {}
        self.digest = None
        self.window_host_days = None
        #: Measured wall spans, name -> (start, end); calibrated at the end.
        self.walls = {}
        self.setup_walls = []
        #: Wall spans of benchmark-only work inside ``wall_s``.
        self.bench_walls = []

    def span(self, label: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(label)

    def telemetry(self):
        return self.tracer.telemetry() if self.tracer is not None else None

    def builder(self, config) -> CampaignBuilder:
        builder = CampaignBuilder(config)
        if self.tracer is not None:
            builder = builder.with_telemetry(self.tracer.telemetry())
        return builder

    def attach(self, sim) -> None:
        if self.tracer is not None:
            self.tracer.attach(sim)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check_digest(self, payload: str) -> None:
        """Compare against the pinned digest, when this seed has one."""
        self.digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        with open(DIGESTS) as fh:
            pinned = json.load(fh).get(self.workload, {}).get(str(self.seed))
        if pinned is not None:
            self.check("digest", self.digest == pinned, self.digest)

    def setup(self, build):
        """Build ``SETUP_REPEATS`` times; keep the last, return it and the
        instant its construction started."""
        built = None
        for _ in range(SETUP_REPEATS[self.workload]):
            built = None
            gc.collect()
            started = perf_counter()
            built = build()
            self.setup_walls.append((started, perf_counter()))
        return built, started

    def mark(self, key: str, started: float) -> None:
        self.walls[key] = (started, perf_counter())

    def timings(self, probe: SpeedProbe, calibrated: bool) -> dict:
        """Every measured span in calibrated (or raw wall) seconds."""
        span = probe.calibrated if calibrated else (lambda t0, t1: t1 - t0)
        out = {key: span(*wall) for key, wall in self.walls.items()}
        out["setup_s"] = statistics.median(span(*wall) for wall in self.setup_walls)
        out["bench_s"] = sum(span(*wall) for wall in self.bench_walls)
        return out


def _record_digest_payload(seed: int, results) -> str:
    """The canonical record, without the telemetry a traced run adds."""
    record = record_from_results(seed, results)
    return dataclasses.replace(record, telemetry=None).canonical_json()


def _check_faithful_record(run: Run, campaign, record_json: str) -> None:
    config = campaign.config
    record = json.loads(record_json)
    horizon = campaign.clock.to_seconds(config.end_date)
    run.check("record.horizon", record["end_time"] == horizon)
    planned = len(paper_install_plan(config))
    run.check(
        "record.installs",
        record["hosts_installed"] == planned,
        f"{record['hosts_installed']} of {planned}",
    )
    installed = {p.host_id for p in config.host_plans}
    run.check(
        "record.census",
        set(record["failed_host_ids"]) <= installed
        and record["hosts_failed"] <= record["hosts_installed"]
        and record["total_runs"] > 0
        and record["snapshot_failure_rate_percent"] is not None,
    )


def _steady_start_s(campaign) -> float:
    """The faithful steady window starts at the last planned install.

    Before it, hosts are still being installed and host time per
    simulated day climbs with the fleet (from about 0.06 to 0.23
    s/sim-day): that is the install ramp, not a leak.  From the
    last install to the horizon all 19 hosts run and the rate is flat.
    """
    last = paper_install_plan(campaign.config)[-1].install_date
    return campaign.clock.to_seconds(last)


def _faithful_counts(run: Run, campaign, results) -> None:
    c = run.counts
    c["sim.events"] = campaign.sim.events_fired
    c["sim.heap_compactions"] = campaign.sim.heap_compactions
    c["workload.cycles"] = results.ledger.total_runs
    c["monitoring.rounds"] = len(campaign.monitoring.rounds)
    c["monitoring.retries"] = campaign.monitoring.retries_total
    c["control.actions"] = campaign.control.actuators.actions_applied
    census = SurvivalCensus.from_campaign(campaign)
    c["plant.faults"] = census.faults_injected
    c["plant.trips"] = census.trips
    c["plant.hosts_shed"] = census.hosts_shed


def paper(run: Run) -> None:
    config = ExperimentConfig(seed=run.seed)
    campaign, started = run.setup(lambda: run.builder(config).build())
    run.attach(campaign.sim)
    with run.span("sim.drive"):
        end = campaign.begin()
    steady_start = _steady_start_s(campaign)
    with run.span("sim.drive"):
        campaign.advance_to(steady_start)
    window_started = perf_counter()
    with run.span("sim.drive"):
        campaign.advance_to(end)
    run.mark("window_s", window_started)
    with run.span("core.results"):
        results = campaign.finish()
        payload = _record_digest_payload(run.seed, results)
    run.check_digest(payload)
    _check_faithful_record(run, campaign, payload)
    run.check("plant.idle", campaign.plant is None)
    run.mark("wall_s", started)
    run.window_host_days = (end - steady_start) / DAY * len(config.host_plans)
    _faithful_counts(run, campaign, results)


def paper_chaos_resume(run: Run, scratch: str) -> None:
    config = ExperimentConfig(seed=run.seed)
    plan = PlantFaultPlan.parse(CHAOS_PLAN.format(seed=run.seed))
    policy = ThermalTripPolicy.parse(TRIP_POLICY)

    def build():
        return (
            run.builder(config)
            .with_plant_faults(plan)
            .with_trip_policy(policy)
            .with_controller("thermostat")
            .build()
        )

    campaign, started = run.setup(build)
    run.attach(campaign.sim)
    steady_start = _steady_start_s(campaign)
    cuts = []
    full_bytes = [0]
    checkpoint_dir = os.path.join(scratch, "checkpoints")

    def on_checkpoint(path, snapshot) -> None:
        cuts.append((snapshot.sim_time, perf_counter()))
        if run.tracer is not None and path is not None:
            # The size a full envelope of this cut would take, for
            # state.delta_ratio; benchmark work, so out of the drive and
            # out of the tracing overhead.
            bench_started = perf_counter()
            with run.span("bench.full-envelope"):
                full = os.path.join(scratch, "full.json")
                write_checkpoint(full, snapshot)
                full_bytes[0] += os.path.getsize(full)
                os.remove(full)
            run.bench_walls.append((bench_started, perf_counter()))

    with run.span("sim.drive"):
        results = campaign.run(
            checkpoint_every=CHECKPOINT_EVERY_S,
            checkpoint_dir=checkpoint_dir,
            on_checkpoint=on_checkpoint,
        )
    with run.span("core.results"):
        payload = _record_digest_payload(run.seed, results)
    run.check_digest(payload)
    _check_faithful_record(run, campaign, payload)
    _faithful_counts(run, campaign, results)

    written = campaign.checkpoints_written
    run.check("checkpoints.flushed", len(written) >= 2, f"{len(written)} flushes")
    census = SurvivalCensus.from_campaign(campaign)
    run.check(
        "plant.census",
        census.faults_injected >= 3
        and census.faults_repaired <= census.faults_injected
        and census.hosts_restored <= census.hosts_shed,
        json.dumps(census.to_json_dict(), sort_keys=True),
    )
    run.counts["state.flushes"] = len(written)
    run.counts["state.bytes_written"] = sum(os.path.getsize(p) for p in written)
    if run.tracer is not None:
        run.counts["state.delta_ratio"] = (
            run.counts["state.bytes_written"] / full_bytes[0] if full_bytes[0] else 0.0
        )

    # Kill at the end, resume from the last flushed checkpoint on disk.
    resume_started = perf_counter()
    with run.span("state.read"):
        snapshot = read_checkpoint(written[-1])
    with run.span("state.restore"):
        resumed = Campaign.restore(snapshot)
    run.mark("resume_s", resume_started)
    if run.tracer is not None:
        resumed.telemetry.spans = run.tracer
        run.attach(resumed.sim)
    at_cut = resumed.sim.events_fired, resumed.sim.heap_compactions
    with run.span("sim.drive"):
        resumed_results = resumed.continue_run()
    with run.span("core.results"):
        resumed_payload = _record_digest_payload(run.seed, resumed_results)
    run.check("resume.identical", resumed_payload == payload)
    run.mark("wall_s", started)
    run.counts["sim.events"] += resumed.sim.events_fired - at_cut[0]
    run.counts["sim.heap_compactions"] += resumed.sim.heap_compactions - at_cut[1]

    # The steady window runs between the first cut after the last
    # install and the last cut, timed by the checkpoint callbacks.
    window = [cut for cut in cuts if cut[0] >= steady_start]
    (t0, wall0), (t1, wall1) = window[0], window[-1]
    run.walls["window_s"] = (wall0, wall1)
    run.window_host_days = (t1 - t0) / DAY * len(config.host_plans)


def fleet_100k_chaos(run: Run) -> None:
    # The paper's default climate and hazard draws; the seed picks the
    # fault scenario.  Every pod shares one weather series, so a warm
    # spell trips all 5,264 pods at once, and the number of such spells
    # in a ten-day draw would swing the run's cost by 1.7x from seed to
    # seed -- more than any change worth measuring.
    config = ExperimentConfig()
    n_pods = -(-FLEET_HOSTS // POD_SIZE)
    plan = PlantFaultPlan.parse(FLEET_PLAN.format(pod=run.seed % n_pods, seed=run.seed))
    policy = ThermalTripPolicy.parse(TRIP_POLICY)

    def build():
        return FleetScaleCampaign(
            FLEET_HOSTS,
            config,
            record_series=True,
            telemetry=run.telemetry(),
            plant_faults=plan,
            trip_policy=policy,
        )

    fleet, started = run.setup(build)
    run.attach(fleet.sim)
    drive_started = perf_counter()
    with run.span("sim.drive"):
        summary = fleet.run(FLEET_DAYS)
    run.mark("window_s", drive_started)
    run.window_host_days = FLEET_DAYS * FLEET_HOSTS
    census = fleet.plant_census()
    run.check_digest(
        json.dumps(
            {"summary": summary, "plant_census": census},
            sort_keys=True,
            separators=(",", ":"),
        )
    )
    # Every host is staged, running, failed or shed; the running and shed
    # counts agree with the census, and every shed host is restored or
    # still shed.
    states = [int(n) for n in np.bincount(fleet.state, minlength=4)]
    run.check(
        "census.every_host",
        sum(states) == summary["hosts"] == FLEET_HOSTS
        and states[1] == summary["running"]
        and states[3] == census["hosts_shed_now"]
        == census["hosts_shed"] - census["hosts_restored"],
        f"staged/running/failed/shed = {states}",
    )
    run.check(
        "census.horizon",
        summary["simulated_s"] == FLEET_DAYS * DAY
        and summary["ticks"] == FLEET_DAYS * DAY / fleet.tick_interval_s,
    )
    run.check(
        "plant.fired", census["trips"] >= 1 and census["hosts_shed"] >= 1,
        f"{census['trips']} trips, {census['hosts_shed']} hosts shed",
    )
    run.mark("wall_s", started)

    c = run.counts
    c["sim.events"] = fleet.sim.events_fired
    c["sim.heap_compactions"] = fleet.sim.heap_compactions
    c["fleetscale.frames"] = summary["ticks"]
    c["workload.cycles"] = summary["workload_runs"]
    c["monitoring.rounds"] = summary["monitor_rounds"]
    series = fleet.series
    c["telemetry.series_samples"] = series.frames_seen * sum(series.signals.values())
    survival = SurvivalCensus.from_campaign(fleet)
    c["plant.faults"] = survival.faults_injected
    c["plant.trips"] = survival.trips
    c["plant.hosts_shed"] = survival.hosts_shed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import BenchTracer, install

        tracer = BenchTracer()
        install(tracer)
    run = Run(args.workload, args.seed, tracer)
    probe = SpeedProbe(tracer)
    probe.start()
    try:
        if args.workload == "paper":
            paper(run)
        elif args.workload == "paper-chaos-resume":
            paper_chaos_resume(run, args.scratch)
        else:
            fleet_100k_chaos(run)
    finally:
        probe.stop()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "workload": run.workload,
        "seed": run.seed,
        "digest": run.digest,
        "checks": run.checks,
        "timings": run.timings(probe, calibrated=True),
        "raw_timings": run.timings(probe, calibrated=False),
        "speed_factor": probe.factor(),
        "window_host_days": run.window_host_days,
        "counts": run.counts,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        factor = probe.factor()
        out["layers"] = {
            name: seconds * factor for name, seconds in tracer.layer_seconds().items()
        }
        out["layer_counts"] = {
            "thermal.advances": tracer.count.get("thermal.advance", 0),
            "hardware.host_ticks": tracer.count.get("hardware.host_tick", 0),
        }
        out["coverage"] = tracer.coverage()
        out["spans"] = tracer.table()
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
