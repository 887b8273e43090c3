"""Post-processing: everything between raw telemetry and the paper's claims.

- :mod:`repro.analysis.series` -- a small time-series container with the
  resampling and daily aggregation Figs. 3-4 need,
- :mod:`repro.analysis.outliers` -- detection of the logger-carried-indoors
  stretches the paper removed from its graphs,
- :mod:`repro.analysis.failures` -- failure-rate census and the
  common-cause clustering test of research question 3,
- :mod:`repro.analysis.memory_errors` -- the Section 4.2.2 page-op
  arithmetic ("one in 570 million"),
- :mod:`repro.analysis.pue` -- the Section 5 PUE calculation (1.74),
- :mod:`repro.analysis.figures` -- the data series behind each figure.
"""

from repro.analysis.failures import (
    CommonCauseCluster,
    FailureCensus,
    INTEL_FAILURE_RATE_PERCENT,
    find_common_cause_clusters,
)
from repro.analysis.comparison import RunComparison, compare_runs
from repro.analysis.condensation import minimum_safe_rise_c, sweep_case_rises
from repro.analysis.degreedays import DegreeDays, degree_days, profile_degree_days
from repro.analysis.economics import SiteEconomics, economics_for
from repro.analysis.freecooling import SiteAssessment, assess_site, compare_sites
from repro.analysis.memory_errors import MemoryErrorEstimate, estimate_memory_error_ratio
from repro.analysis.outliers import detect_removal_outliers, remove_removal_outliers
from repro.analysis.pue import CoolingPlant, PAPER_CLUSTER_PLANT, PueBreakdown
from repro.analysis.reliability import (
    InterpolatedReading,
    Lifetime,
    ObservationCoverage,
    interpolate_readings,
    kaplan_meier,
    lifetimes_from_results,
    mtbf_hours,
    observation_coverage,
    rates_are_consistent,
    wilson_interval,
)
from repro.analysis.scorecard import (
    CLIMATES,
    ControllerScore,
    render_scorecard,
    run_scorecard,
)
from repro.analysis.seedsweep import SeedOutcome, SweepSummary
from repro.analysis.series import TimeSeries
from repro.analysis.timeline import CensusPoint, census_timeline

__all__ = [
    "CLIMATES",
    "ControllerScore",
    "render_scorecard",
    "run_scorecard",
    "TimeSeries",
    "detect_removal_outliers",
    "remove_removal_outliers",
    "FailureCensus",
    "CommonCauseCluster",
    "find_common_cause_clusters",
    "INTEL_FAILURE_RATE_PERCENT",
    "MemoryErrorEstimate",
    "estimate_memory_error_ratio",
    "CoolingPlant",
    "PueBreakdown",
    "PAPER_CLUSTER_PLANT",
    "SiteAssessment",
    "SiteEconomics",
    "assess_site",
    "compare_sites",
    "economics_for",
    "wilson_interval",
    "rates_are_consistent",
    "mtbf_hours",
    "Lifetime",
    "kaplan_meier",
    "lifetimes_from_results",
    "ObservationCoverage",
    "observation_coverage",
    "InterpolatedReading",
    "interpolate_readings",
    "RunComparison",
    "compare_runs",
    "sweep_case_rises",
    "minimum_safe_rise_c",
    "CensusPoint",
    "census_timeline",
    "DegreeDays",
    "degree_days",
    "profile_degree_days",
    "SeedOutcome",
    "SweepSummary",
]
