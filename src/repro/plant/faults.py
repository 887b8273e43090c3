"""Seeded cooling/power plant faults: the chaos-injection plan.

The monitoring plane learned to fail first (``LinkFaultPlan``, PR 4);
this module gives the *plant* the same treatment.  A
:class:`PlantFaultPlan` describes scheduled faults (deterministic
one-offs pinned to a campaign day) and storms (stochastic per-domain
daily coins) over five plant fault kinds:

- ``fan`` / ``failure`` — a pod blower dies: airflow and envelope UA
  degrade until repair;
- ``crac`` / ``outage`` — the basement CRAC stops: the machine room
  drifts toward outside conditions instead of holding setpoint;
- ``intake`` / ``blockage`` — snow or a clogged filter on the intake
  path: severity-scaled airflow loss;
- ``heater`` / ``loss`` — the intake anti-icing heater fails: in
  sub-zero weather ice accretes into a growing blockage;
- ``feed`` / ``drop`` — a power feed drops: every host on the feed's
  pods powers down until the feed returns.

Determinism rules mirror the link-fault plane: storms draw nothing from
the campaign RNG.  Every coin comes from a stateless
``random.Random(f"repro.plantstorm:{seed}:{kind}:{domain}:{day}")`` so
the same plan produces the same faults serially, under ``--jobs N``,
and across kill-and-resume — no draw-order coupling with the rest of
the simulation.  An empty plan is falsy and costs nothing: campaigns
skip the whole plant layer when ``bool(plan)`` is ``False``.

The CLI grammar (``repro run --plant-faults SPEC``) uses ``;`` between
clauses and ``,`` between options within a clause::

    crac:outage@day3,repair=6h
    fan:failure@day2,pod=4,repair=8h;intake:blockage@36h,severity=0.8
    storm:fan:0.05,repair=6h,seed=11;heater:loss@day5,repair=2d
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

DAY_S = 86_400.0

#: Pods per power-feed group at fleet scale (correlated failure domain).
FEED_GROUP_PODS = 4


class PlantFaultKind(enum.Enum):
    """The five plant failure modes the chaos plane can inject."""

    FAN_FAILURE = "fan"
    CRAC_OUTAGE = "crac"
    INTAKE_BLOCKAGE = "intake"
    HEATER_LOSS = "heater"
    FEED_DROP = "feed"


#: CLI clause heads: ``component:event`` -> kind.
_CLAUSE_KINDS: Dict[Tuple[str, str], PlantFaultKind] = {
    ("fan", "failure"): PlantFaultKind.FAN_FAILURE,
    ("crac", "outage"): PlantFaultKind.CRAC_OUTAGE,
    ("intake", "blockage"): PlantFaultKind.INTAKE_BLOCKAGE,
    ("heater", "loss"): PlantFaultKind.HEATER_LOSS,
    ("feed", "drop"): PlantFaultKind.FEED_DROP,
}

#: Mean time-to-repair per kind (seconds) when a clause names none.
DEFAULT_REPAIR_S: Dict[PlantFaultKind, float] = {
    PlantFaultKind.FAN_FAILURE: 8.0 * 3600.0,
    PlantFaultKind.CRAC_OUTAGE: 6.0 * 3600.0,
    PlantFaultKind.INTAKE_BLOCKAGE: 10.0 * 3600.0,
    PlantFaultKind.HEATER_LOSS: 24.0 * 3600.0,
    PlantFaultKind.FEED_DROP: 4.0 * 3600.0,
}

#: Kinds whose failure domain is a pod index.
POD_SCOPED = (PlantFaultKind.FAN_FAILURE, PlantFaultKind.INTAKE_BLOCKAGE)
#: Kinds that hit the whole site regardless of domain.
SITE_SCOPED = (PlantFaultKind.CRAC_OUTAGE, PlantFaultKind.HEATER_LOSS)


def _parse_duration(text: str, clause: str) -> float:
    """``6h`` / ``30m`` / ``2d`` / ``900s`` / bare seconds -> seconds."""
    text = text.strip().lower()
    scale = 1.0
    if text and text[-1] in "smhd":
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": DAY_S}[text[-1]]
        text = text[:-1]
    try:
        value = float(text) * scale
    except ValueError:
        raise ValueError(f"bad duration in plant-fault clause {clause!r}")
    if value <= 0.0:
        raise ValueError(f"duration must be positive in clause {clause!r}")
    return value


def _parse_when(text: str, clause: str) -> float:
    """``day3`` / ``day2.5`` / ``36h`` / ``900s`` -> days after test start."""
    text = text.strip().lower()
    if text.startswith("day"):
        try:
            value = float(text[3:])
        except ValueError:
            raise ValueError(f"bad day offset in plant-fault clause {clause!r}")
    else:
        value = _parse_duration(text, clause) / DAY_S
    if value < 0.0:
        raise ValueError(f"fault time must be >= 0 in clause {clause!r}")
    return value


def _parse_float(text: str, clause: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad number in plant-fault clause {clause!r}")


def _parse_int(text: str, clause: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer in plant-fault clause {clause!r}")


def _parse_options(
    parts, clause: str, allowed: Dict[str, Tuple[str, object]]
) -> Dict[str, object]:
    """Parse trailing ``key=value`` options against an ``allowed`` table."""
    values: Dict[str, object] = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(
                f"expected key=value option in plant-fault clause {clause!r}, "
                f"got {part!r}"
            )
        key, _, raw = part.partition("=")
        key = key.strip().lower()
        if key not in allowed:
            raise ValueError(
                f"unknown option {key!r} in plant-fault clause {clause!r} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        fieldname, parser = allowed[key]
        values[fieldname] = parser(raw.strip(), clause)  # type: ignore[operator]
    return values


_FAULT_OPTIONS: Dict[str, Tuple[str, object]] = {
    "repair": ("repair_s", _parse_duration),
    "severity": ("severity", _parse_float),
    "pod": ("pod", _parse_int),
    "feed": ("feed", _parse_int),
}

_STORM_OPTIONS: Dict[str, Tuple[str, object]] = {
    "repair": ("repair_s", _parse_duration),
    "severity": ("severity", _parse_float),
    "seed": ("seed", _parse_int),
    "from": ("first_day", _parse_float),
    "to": ("last_day", _parse_float),
}


@dataclass(frozen=True)
class PlantFault:
    """One scheduled plant fault.

    ``start_day`` counts days from the campaign's test start.  ``pod``
    targets one pod for pod-scoped kinds (``None`` = every pod);
    ``feed`` targets one power-feed group for feed drops (``None`` =
    every feed).  Site-scoped kinds (CRAC, heater) ignore both.
    """

    kind: PlantFaultKind
    start_day: float
    repair_s: float = 0.0
    severity: float = 1.0
    pod: Optional[int] = None
    feed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_day < 0.0:
            raise ValueError("start_day must be >= 0")
        if self.repair_s < 0.0:
            raise ValueError("repair_s must be >= 0")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")
        if self.pod is not None and self.pod < 0:
            raise ValueError("pod must be >= 0")
        if self.feed is not None and self.feed < 0:
            raise ValueError("feed must be >= 0")
        if self.repair_s == 0.0:
            object.__setattr__(
                self, "repair_s", DEFAULT_REPAIR_S[self.kind]
            )

    @property
    def start_s(self) -> float:
        """Offset from test start, in seconds."""
        return self.start_day * DAY_S


@dataclass(frozen=True)
class PlantStorm:
    """A stochastic fault process: one seeded coin per domain per day.

    ``rate_per_day`` is the expected strikes per failure domain per
    day; each (domain, day) pair flips at most one coin, with
    probability ``min(rate, 1)``.  Repair times are sampled uniformly
    in ``[0.5, 1.5] x repair_s``.  All draws come from a stateless
    ``random.Random`` keyed on ``(seed, kind, domain, day)`` so storm
    outcomes are independent of simulation draw order.
    """

    kind: PlantFaultKind
    rate_per_day: float
    seed: int = 0
    repair_s: float = 0.0
    severity: float = 1.0
    first_day: float = 0.0
    last_day: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rate_per_day <= 1.0:
            raise ValueError("storm rate_per_day must be in (0, 1]")
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")
        if self.repair_s < 0.0:
            raise ValueError("repair_s must be >= 0")
        if self.repair_s == 0.0:
            object.__setattr__(
                self, "repair_s", DEFAULT_REPAIR_S[self.kind]
            )
        if self.last_day is not None and self.last_day < self.first_day:
            raise ValueError("storm window must have last_day >= first_day")

    def fault_for(self, domain: int, day: int) -> Optional[PlantFault]:
        """The fault this storm strikes ``domain`` with on ``day``.

        Pure function of ``(self, domain, day)``: the same arguments
        always return the same fault (or ``None``), regardless of how
        many times or in what order it is asked.
        """
        if day < self.first_day:
            return None
        if self.last_day is not None and day > self.last_day:
            return None
        coin = random.Random(
            f"repro.plantstorm:{self.seed}:{self.kind.value}:{domain}:{day}"
        )
        if coin.random() >= self.rate_per_day:
            return None
        start_day = day + coin.random()  # strike moment within the day
        repair_s = self.repair_s * coin.uniform(0.5, 1.5)
        pod = domain if self.kind in POD_SCOPED else None
        feed = domain if self.kind is PlantFaultKind.FEED_DROP else None
        return PlantFault(
            kind=self.kind,
            start_day=start_day,
            repair_s=repair_s,
            severity=self.severity,
            pod=pod,
            feed=feed,
        )


@dataclass(frozen=True)
class PlantFaultPlan:
    """The full chaos plan: scheduled faults plus storms.

    Falsy when empty — campaigns use ``bool(plan)`` to skip building
    the plant layer entirely, which is what keeps the no-chaos record
    byte-identical to the pinned seed-7 digest.
    """

    faults: Tuple[PlantFault, ...] = field(default_factory=tuple)
    storms: Tuple[PlantStorm, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return bool(self.faults) or bool(self.storms)

    @classmethod
    def of(cls, *faults: PlantFault, storms=()) -> "PlantFaultPlan":
        return cls(faults=tuple(faults), storms=tuple(storms))

    @classmethod
    def parse(cls, text: str) -> "PlantFaultPlan":
        """Parse the CLI grammar.

        Clauses are ``;``-separated; options within a clause are
        ``,``-separated ``key=value`` pairs::

            crac:outage@day3,repair=6h
            fan:failure@day2,pod=4;storm:intake:0.1,seed=3,from=2,to=40

        An empty string parses to an empty (falsy) plan.
        """
        faults = []
        storms = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            parts = [p.strip() for p in clause.split(",")]
            head = parts[0]
            if head.lower().startswith("storm:"):
                storms.append(cls._parse_storm(head, parts[1:], clause))
            else:
                faults.append(cls._parse_fault(head, parts[1:], clause))
        faults.sort(key=lambda f: (f.start_day, f.kind.value))
        return cls(faults=tuple(faults), storms=tuple(storms))

    @staticmethod
    def _parse_fault(head: str, options, clause: str) -> PlantFault:
        if "@" not in head:
            raise ValueError(
                f"plant-fault clause {clause!r} needs component:event@when"
            )
        name, _, when = head.partition("@")
        pieces = name.lower().split(":")
        if len(pieces) != 2 or tuple(pieces) not in _CLAUSE_KINDS:
            known = ", ".join(f"{c}:{e}" for c, e in sorted(_CLAUSE_KINDS))
            raise ValueError(
                f"unknown plant fault {name!r} in clause {clause!r} "
                f"(known: {known})"
            )
        kind = _CLAUSE_KINDS[tuple(pieces)]
        values = _parse_options(options, clause, _FAULT_OPTIONS)
        return PlantFault(
            kind=kind, start_day=_parse_when(when, clause), **values
        )

    @staticmethod
    def _parse_storm(head: str, options, clause: str) -> PlantStorm:
        pieces = head.lower().split(":")
        if len(pieces) != 3:
            raise ValueError(
                f"storm clause {clause!r} must look like storm:COMPONENT:RATE"
            )
        component = pieces[1]
        kinds = {c: k for (c, _e), k in _CLAUSE_KINDS.items()}
        if component not in kinds:
            raise ValueError(
                f"unknown storm component {component!r} in clause {clause!r} "
                f"(known: {', '.join(sorted(kinds))})"
            )
        rate = _parse_float(pieces[2], clause)
        values = _parse_options(options, clause, _STORM_OPTIONS)
        return PlantStorm(kind=kinds[component], rate_per_day=rate, **values)


# ----------------------------------------------------------------------
# Physical consequences
# ----------------------------------------------------------------------
#: Envelope-UA and air-change multipliers per airflow fault, at
#: severity 1.0; severities scale the reduction linearly.  A dead
#: blower mostly kills forced convection; a blocked intake chokes air
#: changes harder than conductance.
FAN_UA_LOSS = 0.30
FAN_ACH_LOSS = 0.40
BLOCKAGE_UA_LOSS = 0.50
BLOCKAGE_ACH_LOSS = 0.80

#: The emergency flap is the trip layer's fallback: ripping it open
#: buys conductance and fresh air at the price of weather exposure.
FLAP_UA_GAIN = 1.6
FLAP_ACH_GAIN = 2.0

#: Floor on composed airflow factors: a fully failed path still leaks.
AIRFLOW_FLOOR = 0.05

#: Ice accretion on an unheated intake in sub-zero air: severity per
#: hour of exposure, and its cap.
ICE_ACCRETION_PER_H = 0.08
ICE_SEVERITY_CAP = 0.9


def airflow_factors(fan_severity, blockage_severity, flap_open):
    """Compose ``(ua_factor, ach_factor)`` from a pod's airflow state.

    Takes scalars or per-pod numpy arrays.  ``blockage_severity`` is the
    worse of an intake blockage and accreted ice: both choke the same
    intake, so they do not compound.  Fan and blockage losses multiply:
    a dead fan behind a blocked intake is worse than either alone, but
    never a perfect seal (:data:`AIRFLOW_FLOOR`).  An open emergency flap
    multiplies in its gains.
    """
    ua = (1.0 - FAN_UA_LOSS * fan_severity) * (
        1.0 - BLOCKAGE_UA_LOSS * blockage_severity
    )
    ach = (1.0 - FAN_ACH_LOSS * fan_severity) * (
        1.0 - BLOCKAGE_ACH_LOSS * blockage_severity
    )
    ua = ua * np.where(flap_open, FLAP_UA_GAIN, 1.0)
    ach = ach * np.where(flap_open, FLAP_ACH_GAIN, 1.0)
    return np.maximum(ua, AIRFLOW_FLOOR), np.maximum(ach, AIRFLOW_FLOOR)
