"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run the experiment (optionally truncated) and print the summary or
    the full paper-style report.  ``--checkpoint-every D
    --checkpoint-dir DIR`` flushes a crash-safe campaign checkpoint
    every D simulated days; ``--resume FILE`` restores one and continues
    it -- the finished results are byte-identical to an uninterrupted
    run.
``figures``
    Run the campaign and render Figs. 3 and 4 as terminal charts, plus
    the Fig. 2 install timeline as text.
``pue``
    Print the Section 5 PUE arithmetic (no simulation needed).
``sites``
    The geographic-extension analysis: free-cooling feasibility for
    Helsinki, NE England, New Mexico, and Singapore.
``atlas``
    The claim at scale: sample N synthetic sites from one seed, score
    each one's free-cooling feasibility and economics on the runner's
    task plane, and print the ranked feasibility table::

        python -m repro atlas --sites 200 --seed 7 --jobs 4 --resumable

    The table is deterministic per ``(sites, seed)``: the same
    invocation is byte-identical at any job count, and with
    ``--resumable`` (or ``--cache-dir``) a killed sweep rerun with the
    same cache serves finished sites from disk and computes only the
    rest -- the final table matches an uninterrupted run exactly.
``export``
    Run the campaign and dump the instrument series, fault log, and
    metadata as CSV/TSV/JSON into a directory.
``sweep``
    Run the campaign under several master seeds -- optionally in
    parallel worker processes (``--jobs N``) and memoised on disk
    (``--cache-dir``; set ``--no-cache`` to disable) -- and print the
    aggregated census, e.g.::

        python -m repro sweep --seeds 7,11,13,17 --jobs 4 --until 2010-03-01

    ``--telemetry`` additionally collects metrics in every worker and
    prints the merged hot-label tallies.  Fault tolerance:
    ``--retries N`` re-runs a crashed or timed-out seed up to N extra
    times (deterministic exponential backoff), ``--timeout S`` bounds
    each attempt's wall clock (needs ``--jobs >= 2``), and
    ``--keep-going`` finishes the surviving seeds when one exhausts its
    retries, printing a failure table instead of aborting.
    ``--resumable`` checkpoints every attempt under the cache directory
    so a retried (crashed/preempted) seed resumes from its last flush
    instead of simulated t=0.
``telemetry``
    Run the campaign with the telemetry plane on and print the hot-label
    / slowest-span report (where simulated events and wall time go).
    ``--json`` prints the machine-readable twin; ``--hosts N`` profiles
    the vectorized fleet tick's phases instead of the paper campaign.
    ``run`` also accepts ``--telemetry-out FILE`` (metrics + spans as
    JSON) and ``--run-log FILE`` (one JSON line per campaign event).
``observe``
    The fleet observatory: run the vectorized cohort with per-pod series
    recording on and render the ASCII dashboard -- fleet-median
    sparklines per signal, a robust-z pod anomaly table, an optional
    per-pod drill-down chart, and the per-phase wall-time profile::

        python -m repro observe --hosts 1900 --until 2010-03-01 --pod 13

Live progress: ``run`` and ``observe`` accept ``--progress`` (JSONL
heartbeats on stderr) or ``--progress-out FILE``; ``sweep`` accepts
``--progress-out FILE`` for per-seed lifecycle events with an ETA.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime as _dt
import functools
import json
import os
import sys
import time
from typing import Callable, List, Optional

from repro import Experiment, ExperimentConfig
from repro.analysis.outliers import DEFAULT_Z_THRESHOLD
from repro.analysis.scorecard import CLIMATES, render_scorecard, run_scorecard
from repro.control.controllers import CONTROLLERS, controller_doc
from repro.core.builder import Campaign, CampaignBuilder
from repro.core.scenarios import SCENARIOS
from repro.monitoring.health import HealthPolicy
from repro.monitoring.transport import LinkFaultPlan
from repro.plant.faults import PlantFaultPlan
from repro.plant.trip import ThermalTripPolicy
from repro.runner import RetryPolicy, sweep_records
from repro.sim.clock import DAY
from repro.state.protocol import StateError
from repro.telemetry import JsonlRunLog, Telemetry
from repro.telemetry.progress import ProgressMeter, SweepProgress


def _parse_date(text: str) -> _dt.datetime:
    try:
        return _dt.datetime.strptime(text, "%Y-%m-%d")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected YYYY-MM-DD, got {text!r}"
        ) from None


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    return seeds


def _number(kind: type, quantity: str, minimum: float, strict: bool = False):
    """An argparse type: a ``kind`` value of ``quantity`` that is at least
    ``minimum`` (above it when ``strict``)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(
                f"expected {noun}, got {text!r}"
            ) from None
        if not (value > minimum if strict else value >= minimum):
            bound = "above" if strict else "at least"
            raise argparse.ArgumentTypeError(
                f"{quantity} must be {bound} {minimum}, got {text}"
            )
        return value

    return parse


# Count and duration flags, each validated at parse time.
_HOSTS = _number(int, "hosts", 1)
_ROWS = _number(int, "rows", 1)
_RETRIES = _number(int, "retries", 0)
_WIDTH = _number(int, "width", 1)
_JOBS = _number(int, "worker processes", 1)
_DAYS = _number(float, "checkpoint cadence (days)", 0, strict=True)
_SITES = _number(int, "sites", 1)
_ROUNDS = _number(int, "confirmation rounds", 1)
_RISK_SITES = _number(int, "sites to stress", 1)
_SECONDS = _number(float, "timeout (seconds)", 0, strict=True)


def _plan(parse: Callable[[str], object]):
    """An argparse type from a spec grammar's ``parse`` (``ValueError`` on
    malformed text)."""

    def adapt(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return adapt


_LINK_FAULTS = _plan(LinkFaultPlan.parse)
_PLANT_FAULTS = _plan(PlantFaultPlan.parse)
_TRIP_POLICY = _plan(ThermalTripPolicy.parse)


def _default_cache_dir(*subdir: str) -> str:
    """``$REPRO_CACHE_DIR/<subdir>``, else ``~/.cache/repro/<subdir or runs>``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return os.path.join(env, *subdir)
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", *(subdir or ("runs",))
    )


def _add_until(parser: argparse.ArgumentParser, scope: str = "the campaign") -> None:
    parser.add_argument(
        "--until", type=_parse_date, default=None,
        help=f"truncate {scope} at this date (YYYY-MM-DD)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument schema (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Running Servers around Zero Degrees'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment and print results")
    run.add_argument("--seed", type=int, default=7, help="master seed")
    _add_until(run)
    run.add_argument(
        "--hosts", type=_HOSTS, default=None, metavar="N",
        help="run the vectorized fleet-scale cohort with N hosts (pods of "
        "19 replicating the paper's vendor mix) instead of the per-event "
        "paper campaign; approximate batch mode, incompatible with "
        "checkpoint/monitoring flags",
    )
    run.add_argument(
        "--controller", default=None, metavar="NAME",
        help="closed-loop controller for the campaign: 'paper-operator' "
        "(the default; the historical R/I/B/F/D schedule), 'thermostat' "
        "(hysteresis flap/fan with min-dwell), or 'model-free' "
        "(Fliess-style intelligent-P fan duty); see 'repro control list'",
    )
    run.add_argument(
        "--report", action="store_true",
        help="print the full paper-style report instead of the summary",
    )
    run.add_argument(
        "--telemetry-out", default=None, metavar="FILE",
        help="collect metrics/spans during the run and write them as JSON",
    )
    run.add_argument(
        "--run-log", default=None, metavar="FILE",
        help="write one JSON line per campaign event (JSONL)",
    )
    run.add_argument(
        "--link-faults", type=_LINK_FAULTS, default=None, metavar="SPEC",
        help="inject transport faults into the monitoring rounds; SPEC is "
        "comma-separated clauses: 'storm:P[:seed=S][:action=A]...' for a "
        "seeded per-(host,round) storm, or 'HOST:ROUND:ACTION[:key=val]...' "
        "for an explicit fault (actions: ssh-timeout, partial, slow)",
    )
    run.add_argument(
        "--plant-faults", type=_PLANT_FAULTS, default=None, metavar="SPEC",
        help="inject cooling/power plant faults; SPEC is ';'-separated "
        "clauses: 'COMPONENT:EVENT@WHEN[,key=value...]' for a scheduled "
        "fault (components: fan, crac, intake, heater, feed; WHEN is "
        "'dayN' or a duration like 36h) or 'storm:COMPONENT:RATE[,...]' "
        "for a seeded per-day storm; works for both the paper campaign "
        "and the --hosts fleet cohort",
    )
    run.add_argument(
        "--trip-policy", type=_TRIP_POLICY, default=None, metavar="SPEC",
        help="protective thermal-trip policy; SPEC is comma-separated "
        "key=value pairs (trip=, clear=, shed=F1+F2+.., hold=, cooldown=, "
        "flap=on|off); an empty SPEC arms the stock policy",
    )
    run.add_argument(
        "--confirm-rounds", type=_ROUNDS, default=1, metavar="N",
        help="consecutive failed rounds before a host outage is confirmed "
        "and the operator is involved (default: 1, the historical behaviour)",
    )
    run.add_argument(
        "--monitor-retries", type=_RETRIES, default=0, metavar="N",
        help="extra SSH attempts per host within a round (default: 0)",
    )
    run.add_argument(
        "--checkpoint-every", type=_DAYS, default=None, metavar="DAYS",
        help="flush a resumable campaign checkpoint every DAYS simulated days",
    )
    run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for checkpoint files (needs --checkpoint-every)",
    )
    run.add_argument(
        "--resume", default=None, metavar="FILE",
        help="restore a checkpoint file and continue it to the horizon; "
        "the campaign's config and degraded-mode options ride in the file, "
        "so builder flags like --seed and --link-faults are ignored",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="emit JSONL heartbeats (sim date, sim-days/s, ETA) on stderr "
        "while the run advances",
    )
    run.add_argument(
        "--progress-out", default=None, metavar="FILE",
        help="write the heartbeat JSONL to FILE instead of stderr",
    )

    figures = sub.add_parser("figures", help="render Figs. 1-4 in the terminal")
    figures.add_argument("--seed", type=int, default=7)
    figures.add_argument("--width", type=_WIDTH, default=90)
    _add_until(figures)

    sub.add_parser("pue", help="the Section 5 PUE arithmetic")

    sites = sub.add_parser("sites", help="free-cooling feasibility by site")
    sites.add_argument(
        "--intake-limit", type=float, default=27.0,
        help="allowed server intake temperature ceiling (degC)",
    )
    sites.add_argument("--seed", type=int, default=0)

    atlas = sub.add_parser(
        "atlas",
        help="multi-site free-cooling economics: rank N synthetic sites",
    )
    atlas.add_argument(
        "--sites", type=_SITES, default=100, metavar="N",
        help="synthetic sites to sample and score (default: 100)",
    )
    atlas.add_argument(
        "--seed", type=int, default=7,
        help="master seed; site i of a seed's atlas is the same at any N",
    )
    atlas.add_argument(
        "--jobs", type=_JOBS, default=1,
        help="worker processes (1 = serial in this process)",
    )
    atlas.add_argument(
        "--intake-limit", type=float, default=27.0,
        help="allowed server intake temperature ceiling (degC)",
    )
    atlas.add_argument(
        "--top", type=_ROWS, default=None, metavar="N",
        help="print only the best N sites (ranking still covers all)",
    )
    atlas.add_argument(
        "--cache-dir", default=None,
        help="site-record cache directory (default with --resumable: "
        "$REPRO_CACHE_DIR/atlas or ~/.cache/repro/atlas)",
    )
    atlas.add_argument(
        "--resumable", action="store_true",
        help="cache every scored site as it lands, so a killed sweep "
        "rerun with the same cache resumes where it stopped and prints "
        "a byte-identical table",
    )
    atlas.add_argument(
        "--retries", type=_RETRIES, default=0, metavar="N",
        help="re-score a crashed site up to N extra times",
    )
    atlas.add_argument(
        "--keep-going", action="store_true",
        help="finish the surviving sites when one exhausts its retries "
        "and report the failure instead of aborting (exit code 1)",
    )
    atlas.add_argument(
        "--progress-out", default=None, metavar="FILE",
        help="write one JSONL line per site lifecycle event "
        "(cached/completed/retried/failed, with running totals and ETA)",
    )
    atlas.add_argument(
        "--risk", action="store_true",
        help="after ranking, stress the best sites (see --risk-sites) with "
        "a short fleet campaign under the stock plant-fault plan and add "
        "a survival-census column to the table",
    )
    atlas.add_argument(
        "--risk-sites", type=_RISK_SITES, default=10, metavar="K",
        help="how many top-ranked sites get the --risk stress run "
        "(default: 10)",
    )

    export = sub.add_parser("export", help="dump a run to flat files")
    export.add_argument("directory", help="output directory")
    export.add_argument("--seed", type=int, default=7)
    _add_until(export)

    sweep = sub.add_parser(
        "sweep", help="run several seeds (optionally parallel) and aggregate"
    )
    sweep.add_argument(
        "--seeds", type=_parse_seeds, default=[7, 11, 13, 17],
        help="comma-separated master seeds (default: 7,11,13,17)",
    )
    sweep.add_argument(
        "--jobs", type=_JOBS, default=1,
        help="worker processes (1 = serial in this process)",
    )
    _add_until(sweep, "every campaign")
    sweep.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default="paper",
        help="named scenario to sweep (default: paper)",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="run-record cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/runs)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk record cache"
    )
    sweep.add_argument(
        "--telemetry", action="store_true",
        help="collect metrics in every worker and print the merged tallies",
    )
    sweep.add_argument(
        "--retries", type=_RETRIES, default=0, metavar="N",
        help="re-run a crashed or timed-out seed up to N extra times "
        "(deterministic exponential backoff between attempts)",
    )
    sweep.add_argument(
        "--timeout", type=_SECONDS, default=None, metavar="SECONDS",
        help="wall-clock budget per attempt; enforced with --jobs >= 2",
    )
    sweep.add_argument(
        "--keep-going", action="store_true",
        help="when a seed exhausts its retries, finish the surviving seeds "
        "and report the failure instead of aborting (exit code 1)",
    )
    sweep.add_argument(
        "--resumable", action="store_true",
        help="flush campaign checkpoints under the cache directory so a "
        "retried attempt resumes from the dead attempt's last flush "
        "instead of simulated t=0 (needs the cache; pair with --retries)",
    )
    sweep.add_argument(
        "--checkpoint-every", type=_DAYS, default=None, metavar="DAYS",
        help="checkpoint cadence for --resumable in simulated days "
        "(default: 14)",
    )
    sweep.add_argument(
        "--progress-out", default=None, metavar="FILE",
        help="write one JSONL line per seed lifecycle event "
        "(cached/completed/retried/failed, with running totals and ETA)",
    )

    telemetry = sub.add_parser(
        "telemetry", help="run with telemetry on and print the hot-label report"
    )
    telemetry.add_argument("--seed", type=int, default=7, help="master seed")
    _add_until(telemetry)
    telemetry.add_argument(
        "--top", type=_ROWS, default=10,
        help="rows per report section (default: 10)",
    )
    telemetry.add_argument(
        "--prometheus", action="store_true",
        help="print the Prometheus text exposition instead of the report",
    )
    telemetry.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report (repro.telemetry.report"
        ".report_json) instead of the text report",
    )
    telemetry.add_argument(
        "--hosts", type=_HOSTS, default=None, metavar="N",
        help="profile the vectorized fleet-scale cohort with N hosts "
        "(per-phase frame spans) instead of the per-event paper campaign",
    )

    observe = sub.add_parser(
        "observe",
        help="fleet observatory: per-pod series dashboard with anomaly flags",
    )
    observe.add_argument(
        "--hosts", type=_HOSTS, default=1900, metavar="N",
        help="fleet size in hosts, grouped into pods of 19 (default: 1900)",
    )
    observe.add_argument("--seed", type=int, default=7, help="master seed")
    _add_until(observe)
    observe.add_argument(
        "--pod", type=int, default=None, metavar="P",
        help="also chart pod P against the fleet median (see --signal)",
    )
    observe.add_argument(
        "--signal", default="tent_air_c",
        help="signal for the --pod drill-down chart (default: tent_air_c)",
    )
    observe.add_argument(
        "--capacity", type=int, default=512, metavar="N",
        help="ring-buffer slots per series; the recorder halves resolution "
        "instead of growing past this (default: 512)",
    )
    observe.add_argument(
        "--width", type=_WIDTH, default=60, help="chart width in columns"
    )
    observe.add_argument(
        "--top", type=_ROWS, default=5,
        help="rows in the pod anomaly table (default: 5)",
    )
    observe.add_argument(
        "--z-threshold", type=float, default=None, metavar="Z",
        help="robust |z| for a pod anomaly flag (default: 3.5)",
    )
    observe.add_argument(
        "--plant-faults", type=_PLANT_FAULTS, default=None, metavar="SPEC",
        help="inject cooling/power plant faults into the observed fleet "
        "(same grammar as 'run --plant-faults'); the dashboard gains a "
        "shed-hosts row and an incident log",
    )
    observe.add_argument(
        "--trip-policy", type=_TRIP_POLICY, default=None, metavar="SPEC",
        help="protective thermal-trip policy for the observed fleet "
        "(same grammar as 'run --trip-policy')",
    )
    observe.add_argument(
        "--progress", action="store_true",
        help="emit JSONL heartbeats on stderr while the run advances",
    )
    observe.add_argument(
        "--progress-out", default=None, metavar="FILE",
        help="write the heartbeat JSONL to FILE instead of stderr",
    )

    scenarios = sub.add_parser(
        "scenarios", help="list the canned scenarios and controllers"
    )
    scenarios.add_argument(
        "--list", action="store_true",
        help="print the registries (the default action)",
    )

    control = sub.add_parser(
        "control", help="closed-loop controllers: list them or compare them"
    )
    control_action = control.add_subparsers(dest="control_command", required=True)
    control_action.add_parser("list", help="print the controller registry")
    compare = control_action.add_parser(
        "compare",
        help="score controllers on energy / failure census / SLA per climate",
    )
    compare.add_argument(
        "--controllers", default="paper-operator,thermostat,model-free",
        metavar="A,B,..", help="comma-separated controller names",
    )
    compare.add_argument(
        "--climates", default="helsinki,harsher-winter",
        metavar="A,B,..", help="comma-separated climate names",
    )
    compare.add_argument("--seed", type=int, default=7, help="master seed")
    _add_until(compare, "each campaign")
    return parser


class _UsageError(Exception):
    """A flag value or combination a verb cannot honour: ``main`` prints
    one ``error:`` line and exits 2."""


def _checkpoint_kwargs(args: argparse.Namespace) -> dict:
    if args.checkpoint_every is None:
        if args.checkpoint_dir:
            raise _UsageError("--checkpoint-dir needs --checkpoint-every")
        return {}
    return {
        "checkpoint_every": args.checkpoint_every * DAY,
        "checkpoint_dir": args.checkpoint_dir,
    }


def _make_progress(args: argparse.Namespace, **kwargs):
    """A :class:`ProgressMeter` per the --progress/--progress-out flags."""
    progress_out = getattr(args, "progress_out", None)
    if not (getattr(args, "progress", False) or progress_out):
        return None
    if progress_out:
        return ProgressMeter.open(progress_out, **kwargs)
    return ProgressMeter(sys.stderr, **kwargs)


def _print_outcome(
    args: argparse.Namespace,
    campaign,
    results=None,
    note: Optional[str] = None,
    degraded: bool = False,
    telemetry=None,
    run_log=None,
    progress=None,
) -> int:
    """The output tail of every ``run`` mode.

    Prints the summary or report of ``results`` (a batch cohort, which
    has none, prints its own summary), the degraded-mode line, the
    survival census, an optional ``note``, then the artifact lines.
    """
    if results is None:
        print(campaign.format_summary())
    elif args.report:
        from repro.core.reporting import full_report

        print(full_report(results))
    else:
        print(results.summary())
    if degraded:
        mon = results.monitoring
        print(
            "degraded-mode: "
            f"{mon.retries_total} retries, "
            f"{mon.ssh_timeouts_total} ssh timeouts, "
            f"{mon.partial_transfers_total} partial transfers, "
            f"{mon.slow_sessions_total} slow sessions, "
            f"{mon.false_alarms_suppressed} false alarms suppressed"
        )
    if campaign.plant is not None:
        from repro.analysis.survival import SurvivalCensus, render_survival

        print("survival census:")
        print(render_survival(SurvivalCensus.from_campaign(campaign), indent="  "))
    if note is not None:
        print(note)
    if telemetry is not None:
        with open(args.telemetry_out, "w", encoding="utf-8") as fh:
            json.dump(telemetry.to_json_dict(), fh, indent=2, sort_keys=True)
        print(f"telemetry -> {args.telemetry_out}")
    if run_log is not None:
        print(f"run log   -> {args.run_log} ({run_log.lines_written} events)")
    if args.progress_out and progress is not None:
        print(f"progress  -> {args.progress_out} ({progress.lines_emitted} heartbeats)")
    if results is not None:
        for path in campaign.checkpoints_written:
            print(f"checkpoint -> {path}")
    return 0


def _cmd_run_resume(args: argparse.Namespace) -> int:
    hooks = [
        name
        for name, value in (
            ("--progress", args.progress),
            ("--progress-out", args.progress_out),
            ("--telemetry-out", args.telemetry_out),
            ("--run-log", args.run_log),
        )
        if value
    ]
    if hooks:
        raise _UsageError(
            f"{', '.join(hooks)} cannot hook a resumed campaign; re-run without them"
        )
    try:
        campaign, results = Campaign.resume(
            args.resume, until=args.until, **_checkpoint_kwargs(args)
        )
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _print_outcome(
        args, campaign, results, note=f"resumed from {args.resume}"
    )


def _heartbeat_sample(counts: Callable[[], dict], telemetry, prefix: str = ""):
    """Heartbeat extras: ``counts()`` plus the hottest span under ``prefix``."""

    def sample():
        extra = counts()
        if telemetry is not None:
            labels = [
                label for label in telemetry.spans.labels() if label.startswith(prefix)
            ]
            if labels:
                extra["hottest_span"] = max(
                    labels, key=lambda l: telemetry.spans.stats(l).total_s
                )
        return extra

    return sample


def _run_batch(
    args: argparse.Namespace,
    telemetry=None,
    source: str = "fleet",
    check: Optional[Callable[[object], None]] = None,
    **options,
):
    """Build the batch cohort the flags describe and drive it to --until.

    ``run --hosts``, ``telemetry --hosts`` and ``observe`` all come
    through here.  ``options`` go to :class:`FleetScaleCampaign`; its
    ``ValueError`` is a usage error, and ``check(campaign)`` may raise
    one before anything runs.  Returns the campaign and the run's wall
    seconds.
    """
    from repro.core.fleetscale import FleetScaleCampaign

    config = ExperimentConfig(seed=args.seed)
    until = args.until if args.until is not None else config.end_date
    days = (until - config.test_start).total_seconds() / 86_400.0
    if days <= 0:
        raise _UsageError("--until precedes the campaign start")
    try:
        campaign = FleetScaleCampaign(
            args.hosts, config, telemetry=telemetry, **options
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if check is not None:
        check(campaign)

    def counts() -> dict:
        summary = campaign.summary()
        return {
            "failures": summary["transient_failures"] + summary["storage_failures"],
            "hosts_running": summary["running"],
        }

    campaign.progress = _make_progress(
        args,
        source=source,
        clock=campaign.clock,
        sim_end_s=campaign.clock.to_seconds(until),
        sample=_heartbeat_sample(counts, telemetry, "fleetscale."),
    )
    wall_start = time.perf_counter()
    try:
        campaign.run(days)
    finally:
        # run() itself emits the final heartbeat, even when it raises.
        if campaign.progress is not None:
            campaign.progress.close()
    return campaign, time.perf_counter() - wall_start


def _cmd_run_fleetscale(args: argparse.Namespace) -> int:
    incompatible = [
        name
        for name, value in (
            ("--resume", args.resume),
            ("--link-faults", args.link_faults),
            ("--monitor-retries", args.monitor_retries),
            ("--confirm-rounds", args.confirm_rounds > 1),
            ("--checkpoint-every", args.checkpoint_every),
            ("--checkpoint-dir", args.checkpoint_dir),
            ("--run-log", args.run_log),
            ("--report", args.report),
            ("--controller", args.controller),
        )
        if value
    ]
    if incompatible:
        raise _UsageError(
            f"--hosts is a batch cohort mode; {', '.join(incompatible)} "
            "only apply to the per-event paper campaign"
        )
    telemetry = Telemetry() if args.telemetry_out else None
    campaign, wall_s = _run_batch(
        args,
        telemetry,
        plant_faults=args.plant_faults,
        trip_policy=args.trip_policy,
    )
    simulated_days = campaign.summary()["simulated_s"] / 86_400.0
    return _print_outcome(
        args,
        campaign,
        note=f"wall: {wall_s:.2f}s for {simulated_days:.1f} sim-days "
        f"({wall_s / max(simulated_days, 1e-9):.4f} s/sim-day)",
        telemetry=telemetry,
        progress=campaign.progress,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.hosts is not None:
        return _cmd_run_fleetscale(args)
    if args.resume:
        return _cmd_run_resume(args)
    checkpoint = _checkpoint_kwargs(args)
    builder = CampaignBuilder(ExperimentConfig(seed=args.seed))
    if args.controller is not None:
        try:
            builder.with_controller(args.controller)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    degraded = args.link_faults is not None or args.confirm_rounds > 1 or args.monitor_retries
    if args.link_faults is not None:
        builder.with_link_faults(args.link_faults)
    if args.plant_faults is not None:
        builder.with_plant_faults(args.plant_faults)
    if args.trip_policy is not None:
        builder.with_trip_policy(args.trip_policy)
    if degraded:
        builder.with_health_policy(
            HealthPolicy(
                confirm_rounds=args.confirm_rounds,
                retry=RetryPolicy(max_attempts=args.monitor_retries + 1),
            )
        )
    telemetry = None
    if args.telemetry_out:
        telemetry = Telemetry()
        builder.with_telemetry(telemetry)
    run_log = None
    if args.run_log:
        run_log = JsonlRunLog.open(args.run_log)
        builder.with_subscriber(run_log.subscribe)
    campaign = builder.build()
    end_date = args.until if args.until is not None else campaign.config.end_date
    progress = _make_progress(
        args,
        source="run",
        clock=campaign.clock,
        sim_end_s=campaign.clock.to_seconds(end_date),
        sample=_heartbeat_sample(
            lambda: {"failures": len(campaign.fault_log.events)}, telemetry
        ),
    )
    if progress is not None:
        campaign.sim.on_event = progress.on_event
    try:
        results = campaign.run(until=args.until, **checkpoint)
    finally:
        if run_log is not None:
            run_log.close()
        if progress is not None:
            progress.finish(campaign.sim.now)
            progress.close()
    return _print_outcome(
        args,
        campaign,
        results,
        degraded=degraded,
        telemetry=telemetry,
        run_log=run_log,
        progress=progress,
    )


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry.report import render_report, report_json

    if args.prometheus and args.json:
        raise _UsageError("pick one of --prometheus / --json")
    telemetry = Telemetry()
    if args.hosts is not None:
        _run_batch(args, telemetry)
    else:
        builder = CampaignBuilder(ExperimentConfig(seed=args.seed))
        builder.with_telemetry(telemetry).build().run(until=args.until)
    if args.prometheus:
        print(telemetry.to_prometheus_text(), end="")
    elif args.json:
        print(json.dumps(report_json(telemetry, top=args.top), sort_keys=True))
    else:
        print(render_report(telemetry, top=args.top))
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    from repro.analysis.observatory import (
        render_observatory,
        render_phase_profile,
        render_plant_incidents,
        render_pod_drilldown,
        render_pod_incidents,
    )

    def check(campaign) -> None:
        if args.pod is None:
            return
        if not 0 <= args.pod < campaign.n_pods:
            raise _UsageError(
                f"--pod must be in [0, {campaign.n_pods}) for {args.hosts} hosts"
            )
        if args.signal not in campaign.series.signals:
            known = ", ".join(sorted(campaign.series.signals))
            raise _UsageError(f"unknown signal {args.signal!r} (one of: {known})")

    telemetry = Telemetry()
    campaign, _ = _run_batch(
        args,
        telemetry,
        source="observe",
        check=check,
        record_series=True,
        series_capacity=args.capacity,
        plant_faults=args.plant_faults,
        trip_policy=args.trip_policy,
    )
    z_threshold = (
        args.z_threshold if args.z_threshold is not None else DEFAULT_Z_THRESHOLD
    )
    print(
        render_observatory(
            campaign.series,
            clock=campaign.clock,
            width=args.width,
            z_threshold=z_threshold,
            top=args.top,
        )
    )
    if campaign.plant_events is not None:
        print()
        print(
            render_plant_incidents(
                campaign.plant_events, clock=campaign.clock, top=args.top
            )
        )
    if args.pod is not None:
        print()
        print(
            render_pod_drilldown(
                campaign.series, args.signal, args.pod, width=args.width
            )
        )
        if campaign.plant_events is not None:
            print()
            print(
                render_pod_incidents(
                    campaign.plant_events, args.pod, clock=campaign.clock
                )
            )
    print()
    print(render_phase_profile(telemetry, campaign.summary()["engine"]["frames"]))
    if args.progress_out:
        lines = campaign.progress.lines_emitted
        print(f"progress  -> {args.progress_out} ({lines} heartbeats)")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.asciiplot import dual_series_chart, render_fig2_gantt
    from repro.analysis.figures import (
        fig1_schematic,
        fig2_timeline,
        fig3_temperatures,
        fig4_humidities,
    )

    results = Experiment(ExperimentConfig(seed=args.seed)).run(until=args.until)
    clock = results.clock

    print(fig1_schematic())
    print()

    timeline = fig2_timeline(results)
    print("Fig. 2 -- dates of when servers were installed (tent group)")
    print(render_fig2_gantt(timeline, clock, width=max(40, args.width - 20)))
    print()

    fig3 = fig3_temperatures(results)
    print("Fig. 3 -- temperatures outside (.) and inside (o) the tent; "
          "letters mark modifications")
    print(dual_series_chart(
        fig3.inside, fig3.outside, "o", ".",
        events=fig3.events, width=args.width, y_label="degC",
    ))
    print()

    fig4 = fig4_humidities(results)
    print("Fig. 4 -- relative humidities outside (.) and inside (o) the tent")
    print(dual_series_chart(
        fig4.inside, fig4.outside, "o", ".", width=args.width, y_label="% RH",
    ))
    return 0


def _cmd_pue(_args: argparse.Namespace) -> int:
    from repro.core.reporting import pue_report

    print(pue_report())
    return 0


def _cmd_sites(args: argparse.Namespace) -> int:
    from repro.analysis.freecooling import compare_sites
    from repro.climate.sites import ALL_SITES

    print(f"Free-cooling feasibility at a {args.intake_limit:.0f} degC intake ceiling")
    print("(the paper: surviving Finnish winter extends Intel's New Mexico and")
    print(" HP's North-East England results 'to most parts of the globe'):")
    for assessment in compare_sites(
        ALL_SITES, intake_limit_c=args.intake_limit, seed=args.seed
    ):
        print(f"  {assessment.describe()}")
    return 0


def _sweep_progress(args: argparse.Namespace, total: int):
    """A :class:`SweepProgress` on --progress-out (``None`` without it),
    closed when the ``with`` block exits."""
    if not args.progress_out:
        return contextlib.nullcontext()
    return contextlib.closing(SweepProgress.open(args.progress_out, total=total))


def _cache_note(result) -> str:
    return (
        f"{result.cache_hits} from cache, {result.cache_misses} "
        f"computed in {result.elapsed_s:.1f} s"
    )


def _print_sweep_tail(args: argparse.Namespace, progress, failures) -> int:
    """The tail ``sweep`` and ``atlas`` share: the progress artifact line
    and the failure table.  Returns the exit code."""
    if progress is not None:
        print(f"progress -> {args.progress_out} ({progress.lines_emitted} events)")
    if failures:
        print()
        print(f"failures ({len(failures)}):")
        for failure in failures:
            print(f"  {failure.describe()}")
    return 1 if failures else 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    from repro.atlas import (
        rank_records,
        render_atlas_table,
        risk_specs,
        run_atlas,
        specs_for_sites,
    )

    cache_dir = args.cache_dir
    if cache_dir is None and args.resumable:
        cache_dir = _default_cache_dir("atlas")
    policy = None
    if args.retries:
        policy = RetryPolicy(max_attempts=args.retries + 1)
    specs = specs_for_sites(
        args.sites, seed=args.seed, intake_limit_c=args.intake_limit
    )
    sweep = functools.partial(
        run_atlas,
        jobs=args.jobs,
        cache_dir=cache_dir,
        policy=policy,
        strict=not args.keep_going,
    )
    with _sweep_progress(args, len(specs)) as progress:
        result = sweep(
            specs, progress=progress.sink if progress is not None else None
        )
    records = list(result.records)
    risk_failures = []
    if args.risk and records:
        ranked = rank_records(records)
        chosen = [r.site for r in ranked[: args.risk_sites]]
        stress = sweep(risk_specs(specs, chosen))
        survival_by_site = {r.site: r.survival for r in stress.records}
        records = [
            dataclasses.replace(r, survival=survival_by_site[r.site])
            if r.site in survival_by_site
            else r
            for r in records
        ]
        risk_failures = list(stress.failures)
        print(f"risk stress: top {len(chosen)} site(s), {_cache_note(stress)}")
    if records:
        print(
            f"Free-cooling atlas: {args.sites} sites, seed {args.seed}, "
            f"{args.intake_limit:.0f} degC intake ceiling"
        )
        print(render_atlas_table(records, top=args.top))
    else:
        print("no site survived the sweep")
    print(f"{len(result.records)} site(s), {_cache_note(result)} (jobs={args.jobs})")
    return _print_sweep_tail(args, progress, list(result.failures) + risk_failures)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.export import export_run

    results = Experiment(ExperimentConfig(seed=args.seed)).run(until=args.until)
    written = export_run(results, args.directory)
    for name in sorted(written):
        print(f"  {name:<22} -> {written[name]}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir else _default_cache_dir()
    if args.resumable and cache_dir is None:
        raise _UsageError("--resumable needs the cache; drop --no-cache")
    if args.checkpoint_every is not None and not args.resumable:
        raise _UsageError("--checkpoint-every needs --resumable")
    policy = None
    if args.retries or args.timeout is not None:
        policy = RetryPolicy(max_attempts=args.retries + 1, timeout_s=args.timeout)
    checkpoint_every_s = None
    if args.checkpoint_every is not None:
        checkpoint_every_s = args.checkpoint_every * DAY
    factory = SCENARIOS[args.scenario]
    with _sweep_progress(args, len(args.seeds)) as progress:
        result = sweep_records(
            args.seeds,
            until=args.until,
            config_factory=lambda seed: factory(seed=seed),
            jobs=args.jobs,
            cache_dir=cache_dir,
            telemetry=args.telemetry,
            policy=policy,
            strict=not args.keep_going,
            resumable=args.resumable,
            checkpoint_every_s=checkpoint_every_s,
            progress=progress.sink if progress is not None else None,
        )
    if result.records:
        print(result.summary.describe())
    else:
        print("no seed survived the sweep")
    fault_note = ""
    if result.retries or result.timeouts:
        fault_note = f", {result.retries} retried, {result.timeouts} timed out"
    if result.checkpoint_resumes:
        fault_note += f", {result.checkpoint_resumes} resumed from checkpoint"
    print(
        f"{len(result.records)} record(s), {_cache_note(result)} "
        f"(jobs={args.jobs}, scenario={args.scenario}{fault_note})"
    )
    code = _print_sweep_tail(args, progress, result.failures)
    if args.telemetry:
        merged = result.merged_telemetry()
        if merged is not None:
            print()
            print("Merged telemetry (hot labels across all workers):")
            hottest = merged.spans.hottest(10)
            width = max((len(stats.label) for stats in hottest), default=0)
            for stats in hottest:
                print(f"  {stats.label:<{width}}  {stats.count}")
    return code


def _first_doc_line(obj) -> str:
    doc = (obj.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def _print_controllers(indent: str = "") -> None:
    width = max(len(name) for name in CONTROLLERS)
    for name in sorted(CONTROLLERS):
        print(f"{indent}{name:<{width}}  {controller_doc(name)}")


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    print("scenarios (run with: repro sweep --scenario NAME):")
    width = max(len(name) for name in SCENARIOS)
    for name, factory in SCENARIOS.items():
        print(f"  {name:<{width}}  {_first_doc_line(factory)}")
    print()
    print("controllers (run with: repro run --controller NAME):")
    _print_controllers("  ")
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    if args.control_command == "list":
        _print_controllers()
        return 0

    controllers = [c.strip() for c in args.controllers.split(",") if c.strip()]
    climates = [c.strip() for c in args.climates.split(",") if c.strip()]
    if not controllers or not climates:
        raise _UsageError("--controllers and --climates each need at least one name")
    unknown = [c for c in controllers if c not in CONTROLLERS]
    unknown += [c for c in climates if c not in CLIMATES]
    if unknown:
        raise _UsageError(f"unknown name(s): {', '.join(unknown)}")
    scores = run_scorecard(
        controllers=controllers, climates=climates, seed=args.seed, until=args.until
    )
    print(
        f"controller scorecard  seed={args.seed}"
        + (f"  until={args.until:%Y-%m-%d}" if args.until else "")
    )
    print(render_scorecard(scores))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "figures": _cmd_figures,
    "pue": _cmd_pue,
    "sites": _cmd_sites,
    "atlas": _cmd_atlas,
    "export": _cmd_export,
    "sweep": _cmd_sweep,
    "telemetry": _cmd_telemetry,
    "observe": _cmd_observe,
    "scenarios": _cmd_scenarios,
    "control": _cmd_control,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
