"""Census evolution over the campaign.

The paper freezes its numbers at one writing date; a longer campaign (or
a reviewer) wants the *trajectory*: how the failure rate, the wrong-hash
census, and the run count grow week by week.  :func:`census_timeline`
replays the fault log and workload record at a fixed cadence and returns
one :class:`~repro.core.results.SnapshotCensus`-like point per period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.failures import census_from_events
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a core <-> analysis import cycle
    from repro.core.results import ExperimentResults
from repro.sim.clock import DAY


@dataclass(frozen=True)
class CensusPoint:
    """The cumulative census as of one instant.

    ``observed_fraction`` is the cumulative share of expected host
    observations the monitoring rounds actually pulled by this time --
    1.0 for a perfectly-watched campaign, lower when SSH timeouts, dead
    switches, or degraded rounds left gaps.
    """

    time: float
    hosts_installed: int
    hosts_failed: int
    failure_events: int
    wrong_hashes: int
    runs: int
    observed_fraction: float = 1.0

    @property
    def failure_rate_percent(self) -> float:
        """Cumulative failed-host rate over installed hosts."""
        if self.hosts_installed == 0:
            return 0.0
        return 100.0 * self.hosts_failed / self.hosts_installed


def census_timeline(
    results: "ExperimentResults", period_days: float = 7.0
) -> List[CensusPoint]:
    """Cumulative censuses at a fixed cadence across the campaign.

    Installed-host counts grow as the staged installs land; failures and
    wrong hashes accumulate from the fault log and workload results.
    """
    if period_days <= 0:
        raise ValueError("period must be positive")
    clock = results.clock
    start = clock.to_seconds(results.config.test_start)
    install_times = {
        plan.host_id: clock.to_seconds(plan.install_date)
        for plan in results.config.host_plans
        if plan.install_date is not None
    }
    wrong_times = sorted(r.time for r in results.ledger.wrong_hash_results)
    round_ticks = sorted(
        (
            r.time,
            len(r.collected_host_ids),
            len(r.collected_host_ids)
            + len(r.unreachable_host_ids)
            + len(r.down_host_ids)
            + len(getattr(r, "degraded_host_ids", ())),
        )
        for r in results.monitoring.rounds
    )
    points: List[CensusPoint] = []
    ticks = []
    t = start + period_days * DAY
    while t <= results.end_time + 1e-9:
        ticks.append(t)
        t += period_days * DAY
    # Always close with the campaign end so the last point matches the
    # final ledger/census exactly.
    if not ticks or ticks[-1] < results.end_time - 1e-9:
        ticks.append(results.end_time)
    for t in ticks:
        installed = [hid for hid, when in install_times.items() if when <= t]
        events = [e for e in results.fault_log.events if e.time <= t]
        census = census_from_events("cumulative", installed, events)
        wrong = sum(1 for w in wrong_times if w <= t)
        runs = _runs_until(results, t)
        observed = sum(obs for when, obs, _ in round_ticks if when <= t)
        expected = sum(exp for when, _, exp in round_ticks if when <= t)
        points.append(
            CensusPoint(
                time=t,
                hosts_installed=len(installed),
                hosts_failed=census.hosts_failed,
                failure_events=len(census.failure_events),
                wrong_hashes=wrong,
                runs=runs,
                observed_fraction=observed / expected if expected else 1.0,
            )
        )
    return points


def _runs_until(results: "ExperimentResults", t: float) -> int:
    """Approximate cumulative run count at ``t`` from install times.

    Hosts complete ~one cycle per 10 minutes while running; downtime is
    second-order for a trajectory plot, so the estimate uses install-to-t
    exposure capped at each host's recorded total.
    """
    clock = results.clock
    total = 0
    for plan in results.config.host_plans:
        if plan.install_date is None:
            continue
        installed_at = clock.to_seconds(plan.install_date)
        if t <= installed_at:
            continue
        estimate = int((t - installed_at) / 600.0)
        recorded = results.ledger.runs_per_host.get(plan.host_id, 0)
        total += min(estimate, recorded)
    return total
