"""Survival census: what the fleet lived through under plant faults.

The chaos plane (:mod:`repro.plant`) counts every injected fault,
protective trip, shed host, and in-incident loss.  This module gives
those counters one canonical shape -- :class:`SurvivalCensus` -- shared
by the fleet-scale campaign, the 19-host paper campaign's controller,
and the atlas risk column, plus a renderer for the CLI.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping


@dataclass(frozen=True)
class SurvivalCensus:
    """Counters of harm done and harm averted during one run."""

    faults_injected: int = 0
    faults_repaired: int = 0
    trips: int = 0
    trip_clears: int = 0
    hosts_shed: int = 0
    hosts_restored: int = 0
    host_hours_shed: float = 0.0
    excursion_minutes: float = 0.0
    hosts_lost: int = 0

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SurvivalCensus":
        """Build from any census-shaped mapping (extra keys ignored)."""
        fields = {
            "faults_injected": int(data.get("faults_injected", 0)),
            "faults_repaired": int(data.get("faults_repaired", 0)),
            "trips": int(data.get("trips", 0)),
            "trip_clears": int(data.get("trip_clears", 0)),
            "hosts_shed": int(data.get("hosts_shed", 0)),
            "hosts_restored": int(data.get("hosts_restored", 0)),
            "host_hours_shed": float(data.get("host_hours_shed", 0.0)),
            "excursion_minutes": float(data.get("excursion_minutes", 0.0)),
            "hosts_lost": int(data.get("hosts_lost", 0)),
        }
        return cls(**fields)

    @classmethod
    def from_campaign(cls, campaign: Any) -> "SurvivalCensus":
        """From a :class:`~repro.core.fleetscale.FleetScaleCampaign`
        (via ``plant_census()``) or a paper :class:`Campaign` (via its
        plant controller's census dict)."""
        census = getattr(campaign, "plant_census", None)
        data = census() if callable(census) else None
        if data is None:
            controller = getattr(campaign, "plant", None)
            data = getattr(controller, "census", None)
        return cls.from_mapping(data or {})

    def to_json_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["host_hours_shed"] = round(self.host_hours_shed, 3)
        data["excursion_minutes"] = round(self.excursion_minutes, 3)
        return data

    @property
    def sla_impact_host_hours(self) -> float:
        """Host-hours of lost service: shed time plus repair windows of
        in-incident losses (the loss itself is counted by its shed
        column only when the host was deliberately powered down --
        failures carry their own repair outage, tallied by the hazard
        model, so this is the deliberate-downtime share)."""
        return self.host_hours_shed

    def survived(self) -> bool:
        """Did the protective layer hold -- every shed host restored and
        every trip cleared by end of run?"""
        return self.hosts_restored >= self.hosts_shed and self.trip_clears >= self.trips


def render_survival(census: SurvivalCensus, indent: str = "") -> str:
    """A compact multi-line text block for the CLI."""
    lines: List[str] = [
        f"{indent}faults injected   {census.faults_injected}"
        f"  (repaired {census.faults_repaired})",
        f"{indent}thermal trips     {census.trips}"
        f"  (cleared {census.trip_clears})",
        f"{indent}hosts shed        {census.hosts_shed}"
        f"  (restored {census.hosts_restored})",
        f"{indent}host-hours shed   {census.host_hours_shed:.1f}",
        f"{indent}excursion minutes {census.excursion_minutes:.0f}",
        f"{indent}hosts lost        {census.hosts_lost}",
    ]
    return "\n".join(lines)
