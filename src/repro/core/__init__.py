"""The paper's contribution: the zero-degrees experiment, end to end.

- :mod:`repro.core.config` -- every date, host, and policy knob of the
  campaign, defaulting to the paper's own timeline,
- :mod:`repro.core.deployment` -- the pairwise tent/basement fleet and the
  Fig. 2 install schedule,
- :mod:`repro.core.protocol` -- the operator playbook (resets, warm
  reboots, replacements, switch repairs),
- :mod:`repro.core.experiment` -- the two-phase driver (prototype weekend,
  then the full campaign),
- :mod:`repro.core.results` -- everything a finished run exposes,
- :mod:`repro.core.reporting` -- paper-style textual reports.
"""

from repro.core.builder import Campaign, CampaignBuilder, DEFAULT_INSTRUMENTS
from repro.core.config import ExperimentConfig, HostPlan, TentModificationPlan
from repro.core.deployment import Fleet, paper_install_plan
from repro.core.experiment import Experiment
from repro.core.protocol import OperatorPolicy
from repro.core.results import ExperimentResults, PrototypeResult
from repro.core.scenarios import (
    SCENARIOS,
    conditioned_tent,
    extended_year,
    harsher_winter,
    no_modifications,
    paper_campaign,
)

__all__ = [
    "Campaign",
    "CampaignBuilder",
    "DEFAULT_INSTRUMENTS",
    "ExperimentConfig",
    "HostPlan",
    "TentModificationPlan",
    "Fleet",
    "paper_install_plan",
    "OperatorPolicy",
    "Experiment",
    "ExperimentResults",
    "PrototypeResult",
    "SCENARIOS",
    "paper_campaign",
    "no_modifications",
    "conditioned_tent",
    "extended_year",
    "harsher_winter",
]
