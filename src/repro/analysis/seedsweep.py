"""Monte-Carlo over master seeds: the census as a distribution.

The paper reports one draw of reality; the simulation can report the
*distribution*.  This module holds the passive aggregates -- a
:class:`SeedOutcome` per run and the :class:`SweepSummary` with its
Wilson interval over the pooled host population -- for questions like
"was 5.6 % lucky?" (answer: it is near the middle of the distribution)
without touching the calibrated default run.

Execution lives in :mod:`repro.runner.pool`: ``sweep_seeds`` and
``sweep_records`` run the campaigns, serially or process-parallel, with
retries/timeouts and graceful degradation when a worker misbehaves -- a
sweep that loses a seed reports it in ``SweepResult.failures`` and still
aggregates the survivors here.  Keeping this module free of
``repro.core`` imports is deliberate -- the old function-local ``from
repro import Experiment`` papered over an import cycle the layering now
rules out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.reliability import wilson_interval


@dataclass(frozen=True)
class SeedOutcome:
    """The headline census of one seeded run."""

    seed: int
    hosts_installed: int
    hosts_failed: int
    wrong_hashes: int
    total_runs: int
    sensor_latches: int

    @property
    def failure_rate_percent(self) -> float:
        """Failed-host rate for this seed."""
        if self.hosts_installed == 0:
            return 0.0
        return 100.0 * self.hosts_failed / self.hosts_installed

    @property
    def wrong_hash_rate(self) -> float:
        """Wrong hashes per run for this seed."""
        if self.total_runs == 0:
            return 0.0
        return self.wrong_hashes / self.total_runs


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate over all swept seeds."""

    outcomes: Tuple[SeedOutcome, ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError("a sweep needs at least one outcome")

    def pooled_failure_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Wilson interval over the pooled host population (as fractions)."""
        failed = sum(o.hosts_failed for o in self.outcomes)
        total = sum(o.hosts_installed for o in self.outcomes)
        return wilson_interval(failed, total, confidence)

    @property
    def pooled_wrong_hash_rate(self) -> float:
        """Wrong hashes per run over every swept run."""
        wrong = sum(o.wrong_hashes for o in self.outcomes)
        runs = sum(o.total_runs for o in self.outcomes)
        return wrong / runs if runs else 0.0

    def rate_within(self, percent: float) -> bool:
        """Whether ``percent`` lies inside the pooled 95 % interval."""
        lo, hi = self.pooled_failure_interval()
        return lo <= percent / 100.0 <= hi

    def describe(self) -> str:
        """Per-seed table plus the pooled interval."""
        lines = [f"{'seed':>6}{'failed':>9}{'rate':>8}{'wrong':>7}{'runs':>9}"]
        for o in self.outcomes:
            lines.append(
                f"{o.seed:>6}{o.hosts_failed:>6}/{o.hosts_installed:<2}"
                f"{o.failure_rate_percent:>7.1f}%{o.wrong_hashes:>7}{o.total_runs:>9}"
            )
        lo, hi = self.pooled_failure_interval()
        lines.append(
            f"pooled failure rate 95 % CI: {100 * lo:.1f}-{100 * hi:.1f} % "
            f"(paper: 5.6 %, Intel: 4.46 %)"
        )
        return "\n".join(lines)


def outcome_from_results(seed: int, results) -> SeedOutcome:
    """Extract the headline census of one finished run."""
    census = results.overall_census()
    latches = sum(
        1 for h in results.fleet.hosts.values() if h.sensor.ever_latched
    )
    return SeedOutcome(
        seed=seed,
        hosts_installed=census.hosts_total,
        hosts_failed=census.hosts_failed,
        wrong_hashes=results.ledger.total_wrong_hashes,
        total_runs=results.ledger.total_runs,
        sensor_latches=latches,
    )
