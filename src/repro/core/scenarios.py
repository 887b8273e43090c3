"""Canned experiment scenarios.

The paper's campaign is one point in a space of believable what-ifs; these
constructors package the ones the text itself raises:

- :func:`paper_campaign` -- the default, exactly as published;
- :func:`no_modifications` -- the operators never fight the tent's heat
  retention (no R/I/B/F): "the tent proved surprisingly good at retaining
  heat", so what would have happened had they left it sealed?
- :func:`extended_year` -- the Section 6 future work: run into November
  under the full-year profile;
- :func:`conditioned_tent` -- a tent that starts fully opened up (all
  modifications pre-applied), approximating a purpose-built free-air
  shelter rather than an improvised camping tent;
- :func:`harsher_winter` -- the same campaign with a deeper, longer cold
  snap, probing the "much more extreme conditions occur in the Northern
  parts" remark.

Each returns an :class:`~repro.core.config.ExperimentConfig`; run it with
:class:`~repro.core.experiment.Experiment`.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
from typing import Optional, Tuple

from repro.climate.profiles import ClimateProfile, ColdSnap, HELSINKI_2010
from repro.climate.sites import HELSINKI_FULL_YEAR
from repro.core.config import ExperimentConfig, TentModificationPlan
from repro.thermal.tent import Modification


def paper_campaign(seed: int = 7) -> ExperimentConfig:
    """The campaign exactly as the paper describes it."""
    return ExperimentConfig(seed=seed)


def no_modifications(seed: int = 7) -> ExperimentConfig:
    """The sealed-tent counterfactual: nobody cuts, covers, or fans.

    The tent keeps its factory envelope all spring.  Expect higher inside
    temperatures, hotter cases, and more vendor-B failures -- the outcome
    the paper's operators were visibly working to avoid.
    """
    return dataclasses.replace(ExperimentConfig(seed=seed), modification_plans=())


def conditioned_tent(seed: int = 7) -> ExperimentConfig:
    """Every modification applied on day one: a purpose-built shelter.

    Approximates the "outside storage shed with only minimal cover" the
    paper names as the ideal construction it could not afford.
    """
    config = ExperimentConfig(seed=seed)
    day_one = config.test_start + _dt.timedelta(hours=1)
    plans = tuple(
        TentModificationPlan(day_one + _dt.timedelta(minutes=i), mod)
        for i, mod in enumerate(Modification)
    )
    return dataclasses.replace(config, modification_plans=plans)


def extended_year(seed: int = 7, until: Optional[_dt.datetime] = None) -> ExperimentConfig:
    """Section 6's future work: the fleet runs Feb through October."""
    end = until if until is not None else _dt.datetime(2010, 11, 1)
    return dataclasses.replace(
        ExperimentConfig(seed=seed), climate=HELSINKI_FULL_YEAR, end_date=end
    )


def harsher_winter(seed: int = 7, extra_depth_c: float = 6.0) -> ExperimentConfig:
    """A Northern-Finland analogue: the February snap digs deeper.

    "While these measurements were taken in Southern Finland, much more
    extreme conditions occur in the Northern parts."
    """
    if extra_depth_c < 0:
        raise ValueError("extra depth is a magnitude")
    base = HELSINKI_2010
    deepened: Tuple[ColdSnap, ...] = tuple(
        ColdSnap(
            peak=snap.peak,
            depth_c=snap.depth_c + extra_depth_c,
            sigma_days=snap.sigma_days * 1.3,
        )
        for snap in base.cold_snaps
    )
    climate = dataclasses.replace(
        base, name=f"{base.name}-harsher", cold_snaps=deepened
    )
    return dataclasses.replace(ExperimentConfig(seed=seed), climate=climate)


#: Named scenarios for sweeps and the CLI: name -> ``factory(seed)``.
SCENARIOS = {
    "paper": paper_campaign,
    "no-modifications": no_modifications,
    "conditioned-tent": conditioned_tent,
    "extended-year": extended_year,
    "harsher-winter": harsher_winter,
}
