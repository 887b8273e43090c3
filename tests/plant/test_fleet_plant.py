"""The vectorized chaos plane at fleet scale.

Covers the acceptance surfaces: an empty plan leaves the cohort
bit-for-bit unperturbed, a seeded plan reproduces an identical survival
census run-to-run, faults have physical consequences (basement drift,
airflow loss, feed sheds), protective trips shed and restore load, and
the per-pod plant state round-trips through its state dict.
"""

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.fleetscale import FleetScaleCampaign
from repro.plant.faults import (
    ICE_ACCRETION_PER_H,
    ICE_SEVERITY_CAP,
    PlantFaultPlan,
    airflow_factors,
)
from repro.plant.fleet import FleetPlant
from repro.plant.trip import ThermalTripPolicy
from repro.sim import events as ev

HOSTS = 190  # 10 pods; enough for a feed group plus spares

CHAOS_PLAN = (
    "crac:outage@day1,repair=12h; "
    "intake:blockage@day2,repair=18h,severity=1.0"
)
# Above the fleet's fault-free intake peak, below the blockage peak:
# trips fire only while the physics is actually degraded.
CHAOS_POLICY = "trip=42,clear=34"


def _chaos_campaign(plan=CHAOS_PLAN, policy=CHAOS_POLICY, hosts=HOSTS, **kw):
    return FleetScaleCampaign(
        hosts,
        ExperimentConfig(seed=7),
        plant_faults=PlantFaultPlan.parse(plan) if plan is not None else None,
        trip_policy=ThermalTripPolicy.parse(policy) if policy else None,
        **kw,
    )


class TestEmptyPlanIsFree:
    def test_no_plant_is_constructed(self):
        campaign = _chaos_campaign(plan="", policy=None)
        assert campaign.plant is None
        assert campaign.plant_events is None
        assert campaign.plant_census() is None

    def test_summary_identical_to_plain_campaign(self):
        plain = FleetScaleCampaign(HOSTS, ExperimentConfig(seed=7))
        disarmed = _chaos_campaign(plan="", policy=None)
        plain.run(5.0)
        disarmed.run(5.0)
        assert plain.summary() == disarmed.summary()


class TestPhysicalConsequences:
    def test_crac_outage_drifts_the_basement(self):
        plain = FleetScaleCampaign(
            HOSTS, ExperimentConfig(seed=7), record_series=True
        )
        chaos = _chaos_campaign(
            plan="crac:outage@day1,repair=12h", policy=None,
            record_series=True,
        )
        plain.run(2.0)
        chaos.run(2.0)
        plain_basement = plain.series.values("basement_c")
        chaos_basement = chaos.series.values("basement_c")
        # Healthy CRAC holds a tight band around 21 degC; the outage
        # lets the basement leave it (toward outside in a Finnish
        # February, i.e. it gets cold down there).
        assert float(np.ptp(plain_basement)) < 1.0
        assert float(np.ptp(chaos_basement)) > 3.0

    def test_blockage_heats_the_tents(self):
        plain = FleetScaleCampaign(HOSTS, ExperimentConfig(seed=7))
        chaos = _chaos_campaign(
            plan="intake:blockage@day1,repair=2d,severity=1.0", policy=None
        )
        peak_plain = peak_chaos = -99.0
        for _ in range(3 * 48):
            plain.step_days(1 / 48)
            chaos.step_days(1 / 48)
            peak_plain = max(peak_plain, float(plain.tents.air_temp_c.max()))
            peak_chaos = max(peak_chaos, float(chaos.tents.air_temp_c.max()))
        assert peak_chaos > peak_plain + 5.0

    def test_feed_drop_sheds_and_restores_the_feed_group(self):
        campaign = _chaos_campaign(
            plan="feed:drop@day1,repair=6h,feed=0", policy=None
        )
        campaign.run(0.9)
        running_before = int(campaign.summary()["running"])
        campaign.step_days(0.2)  # into the outage
        census = campaign.plant_census()
        assert census["hosts_shed"] > 0
        assert census["hosts_shed_now"] > 0
        # Only feed 0's pods (4 pods x 19 hosts) are eligible.
        assert census["hosts_shed"] <= 4 * 19
        campaign.step_days(0.3)  # past the repair
        census = campaign.plant_census()
        assert census["hosts_shed_now"] == 0
        assert census["hosts_restored"] == census["hosts_shed"]
        assert int(campaign.summary()["running"]) >= running_before - 2

    def test_trips_shed_then_recover(self):
        campaign = _chaos_campaign()
        campaign.run(8.0)
        census = campaign.plant_census()
        assert census["faults_injected"] == 2
        assert census["faults_repaired"] == 2
        assert census["trips"] > 0
        assert census["trip_clears"] == census["trips"]
        assert census["hosts_shed"] > 0
        assert census["hosts_restored"] == census["hosts_shed"]
        assert census["host_hours_shed"] > 0.0
        assert census["excursion_minutes"] > 0.0

    def test_events_flow_through_the_recorder(self):
        campaign = _chaos_campaign()
        campaign.run(8.0)
        recorder = campaign.plant_events
        census = campaign.plant_census()
        assert len(recorder.of_type(ev.PlantFaultInjected)) == 2
        assert len(recorder.of_type(ev.PlantFaultRepaired)) == 2
        assert len(recorder.of_type(ev.ThermalTrip)) == census["trips"]
        assert len(recorder.of_type(ev.ThermalTripCleared)) == census["trips"]
        shed_events = recorder.of_type(ev.LoadShed)
        assert sum(e.hosts for e in shed_events) == census["hosts_shed"]


class TestDeterminism:
    def test_same_seed_same_census(self):
        first = _chaos_campaign(plan=CHAOS_PLAN + "; storm:fan:0.2,seed=11")
        second = _chaos_campaign(plan=CHAOS_PLAN + "; storm:fan:0.2,seed=11")
        first.run(8.0)
        second.run(8.0)
        assert first.plant_census() == second.plant_census()
        assert first.summary() == second.summary()

    def test_storm_seed_changes_the_outcome(self):
        first = _chaos_campaign(plan="storm:intake:0.5,seed=1,severity=1.0")
        second = _chaos_campaign(plan="storm:intake:0.5,seed=2,severity=1.0")
        first.run(6.0)
        second.run(6.0)
        assert (
            first.plant_census()["faults_injected"]
            != second.plant_census()["faults_injected"]
        )


class TestStateRoundtrip:
    def _advance(self, plant, until_days):
        t = 0.0
        while t < until_days * 86_400.0:
            t += 300.0
            plant.advance(t, 300.0, -10.0)
            if plant.policy is not None:
                plant.evaluate(t, 300.0, np.full(plant.n_pods, 30.0))

    def test_mid_outage_state_roundtrips(self):
        plan = PlantFaultPlan.parse(
            "crac:outage@day0.5,repair=2d; fan:failure@day0.25,pod=3,"
            "severity=0.9; storm:intake:0.3,seed=5"
        )
        policy = ThermalTripPolicy.parse("trip=25,clear=20")
        original = FleetPlant(plan, policy, n_pods=10, start_s=0.0)
        self._advance(original, 1.0)
        assert original.crac_until > 86_400.0  # outage still active

        clone = FleetPlant(plan, policy, n_pods=10, start_s=0.0)
        clone.load_state_dict(original.state_dict())
        for attr in (
            "fan_until", "fan_severity", "block_until", "block_severity",
            "feed_until", "tripped", "stage", "stage_deadline",
            "restore_at", "flap", "ua_factor", "ach_factor",
        ):
            np.testing.assert_array_equal(
                getattr(original, attr), getattr(clone, attr), err_msg=attr
            )
        assert clone.crac_until == original.crac_until
        assert clone.ice_severity == original.ice_severity
        assert clone.faults_injected == original.faults_injected
        assert clone.hosts_shed == original.hosts_shed

        # The clone continues exactly like the original.
        self._advance(original, 2.0)
        self._advance(clone, 2.0)
        np.testing.assert_array_equal(original.ua_factor, clone.ua_factor)
        assert original.faults_injected == clone.faults_injected
        assert original.trips == clone.trips

    def test_version_guard(self):
        plant = FleetPlant(PlantFaultPlan(), None, n_pods=2, start_s=0.0)
        state = plant.state_dict()
        state["version"] = 99
        with pytest.raises(Exception):
            FleetPlant(PlantFaultPlan(), None, 2, 0.0).load_state_dict(state)


class TestHeaterLoss:
    """Intake ice: grows only in sub-zero air, caps, chokes the intake
    like a blockage (the worse of the two counts), clears at repair."""

    HOUR = 3600.0

    def _plant(self, plan="heater:loss@day0,repair=2d"):
        plant = FleetPlant(PlantFaultPlan.parse(plan), None, n_pods=1, start_s=0.0)
        plant.advance(0.0, 0.0, -5.0)  # the heater fails
        return plant

    def test_ice_accretes_only_below_freezing(self):
        plant = self._plant()
        for hour in (1, 2, 3):
            plant.advance(hour * self.HOUR, self.HOUR, -5.0)
        assert plant.ice_severity == pytest.approx(3 * ICE_ACCRETION_PER_H)
        grown = plant.ice_severity
        plant.advance(4 * self.HOUR, self.HOUR, 2.0)
        plant.advance(5 * self.HOUR, self.HOUR, 0.0)
        assert plant.ice_severity == grown

    def test_ice_is_capped(self):
        plant = self._plant()
        for hour in range(1, 25):
            plant.advance(hour * self.HOUR, self.HOUR, -5.0)
        assert plant.ice_severity == ICE_SEVERITY_CAP

    def test_ice_clears_at_repair(self):
        plant = self._plant()
        plant.advance(self.HOUR, self.HOUR, -5.0)
        assert plant.ice_severity > 0.0 and plant.degraded
        plant.advance(2 * 86_400.0, self.HOUR, -5.0)
        assert plant.ice_severity == 0.0
        assert not plant.degraded

    def test_ice_and_blockage_compose_alike_on_both_paths(self):
        plant = self._plant(
            "heater:loss@day0,repair=2d; intake:blockage@day0,repair=2d,severity=1.0"
        )
        for hour in range(1, 25):
            plant.advance(hour * self.HOUR, self.HOUR, -5.0)
        assert plant.ice_severity == ICE_SEVERITY_CAP
        # A full blockage under 0.9 ice is a full blockage, not worse.
        assert plant.ua_factor[0] == airflow_factors(0.0, 1.0, False)[0] == 0.5

        # The faithful path: the tent's factors come from the same call.
        import datetime as dt

        from repro.core.builder import CampaignBuilder

        campaign = (
            CampaignBuilder(ExperimentConfig(seed=7))
            .with_plant_faults(
                PlantFaultPlan.parse(
                    "heater:loss@day0,repair=3d;"
                    "intake:blockage@day0,repair=3d,severity=0.5"
                )
            )
            .build()
        )
        campaign.run(until=dt.datetime(2010, 2, 20, 12, 0))
        core = campaign.plant.core
        assert core.ice_severity == ICE_SEVERITY_CAP  # a Finnish February night
        expected = airflow_factors(0.0, ICE_SEVERITY_CAP, False)
        tent = campaign.fleet.tent
        assert (tent.plant_ua_factor, tent.plant_ach_factor) == expected
        assert (core.ua_factor[0], core.ach_factor[0]) == expected
