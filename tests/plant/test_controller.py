"""The chaos plane through the paper campaign: census, kill-and-resume.

The tentpole's hardest promise lives here: a campaign killed in the
*middle of an active outage* -- shed hosts, CRAC down, trip latched --
and resumed cold from disk must finish byte-identical to the straight
run -- also when the checkpoint carries the ``fleet_backend`` field
that older builds wrote for either of their two fleet backends.  And a
campaign built with an *empty* plan
must not merely be close to the plain seed-7 run: it must reproduce the
pinned record digest exactly, because no plant is constructed at all.

The fault plan below keeps a five-day compound outage (full intake
blockage plus CRAC loss from day 1) in force across every checkpoint
cut, and the deliberately hair-trigger trip policy guarantees the cut
we resume from has latched trips and shed hosts in flight.
"""

import datetime as dt
import hashlib
import json
import os

import pytest

from repro.analysis.survival import SurvivalCensus
from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.plant.faults import PlantFaultPlan
from repro.plant.trip import ThermalTripPolicy
from repro.runner.records import record_from_results
from repro.sim import events as ev
from repro.sim.events import EventRecorder

PLAN = "intake:blockage@day1,repair=5d,severity=1.0; crac:outage@day1,repair=5d"
POLICY = "trip=10,clear=4,shed=0.5+1.0,hold=30m,cooldown=12h"
#: Eight days past test_start (2010-02-19 12:00) -- the outage spans
#: days 1..6 of the test window, so every interior cut is mid-incident.
UNTIL = dt.datetime(2010, 2, 27, 12, 0)
EVERY = 2 * 86_400.0
#: The cut verified to land mid-outage: shed hosts and an active CRAC
#: fault both in force at restore time (asserted below, not assumed).
MID_OUTAGE_CUT = 3


def _chaos_builder():
    return (
        CampaignBuilder(ExperimentConfig(seed=7))
        .with_plant_faults(PlantFaultPlan.parse(PLAN))
        .with_trip_policy(ThermalTripPolicy.parse(POLICY))
    )


def _record_json(results):
    return record_from_results(7, results, until=UNTIL).canonical_json()


class TestChaosCampaign:
    @pytest.fixture(scope="class")
    def straight(self):
        campaign = _chaos_builder().build()
        recorder = EventRecorder()
        recorder.attach(campaign.bus)
        results = campaign.run(until=UNTIL)
        return campaign, recorder, results

    def test_census_counts_the_incident(self, straight):
        campaign, _, _ = straight
        census = SurvivalCensus.from_campaign(campaign)
        assert census.faults_injected == 2
        assert census.faults_repaired == 2
        assert census.trips > 0
        assert census.hosts_shed > 0
        assert census.host_hours_shed > 0.0
        assert census.excursion_minutes > 0.0

    def test_events_match_the_census(self, straight):
        campaign, recorder, _ = straight
        census = SurvivalCensus.from_campaign(campaign)
        assert len(recorder.of_type(ev.PlantFaultInjected)) == 2
        assert len(recorder.of_type(ev.PlantFaultRepaired)) == 2
        assert len(recorder.of_type(ev.ThermalTrip)) == census.trips
        shed = recorder.of_type(ev.LoadShed)
        assert sum(e.hosts for e in shed) == census.hosts_shed

    def test_chaos_changes_the_record(self, straight):
        _, _, results = straight
        plain = CampaignBuilder(ExperimentConfig(seed=7)).build().run(until=UNTIL)
        assert _record_json(results) != _record_json(plain)


class TestKillAndResumeMidOutage:
    @pytest.mark.parametrize("legacy_backend", ["object", "columnar"])
    def test_resume_is_byte_identical(self, legacy_backend, tmp_path):
        straight_campaign = _chaos_builder().build()
        straight = straight_campaign.run(until=UNTIL)

        campaign = _chaos_builder().build()
        campaign.run(
            until=UNTIL, checkpoint_every=EVERY, checkpoint_dir=str(tmp_path)
        )
        assert len(campaign.checkpoints_written) > MID_OUTAGE_CUT

        from repro.state.checkpoint import read_checkpoint, write_checkpoint

        snapshot = read_checkpoint(campaign.checkpoints_written[MID_OUTAGE_CUT])
        assert "fleet_backend" not in snapshot.meta
        # Re-tag the cut as an older build wrote it; the single fleet
        # path must ignore the field and still resume mid-incident.
        snapshot.meta["fleet_backend"] = legacy_backend
        legacy_path = str(tmp_path / "legacy.ckpt")
        assert write_checkpoint(legacy_path, snapshot)
        snapshot = read_checkpoint(legacy_path)
        assert snapshot.meta["fleet_backend"] == legacy_backend
        mid = Campaign.restore(snapshot)
        # The cut really was mid-incident: hosts shed, CRAC still down.
        assert mid.plant is not None
        assert mid.plant.shed_host_count() > 0
        assert mid.plant.crac_until > mid.sim.now
        # The plan and policy rode inside the checkpoint.
        assert mid._plant_faults == PlantFaultPlan.parse(PLAN)
        assert mid._trip_policy == ThermalTripPolicy.parse(POLICY)

        results = mid.continue_run(until=UNTIL)
        assert _record_json(results) == _record_json(straight)
        assert mid.plant.census == straight_campaign.plant.census


class TestEmptyPlanDigest:
    def test_disarmed_plane_keeps_the_pinned_seed7_digest(self):
        until = dt.datetime(2010, 3, 6, 12, 0)
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=7))
            .with_plant_faults(PlantFaultPlan.parse(""))
            .build()
        )
        assert campaign.plant is None
        results = campaign.run(until=until)
        record = record_from_results(7, results, until=until).canonical_json()
        pin_path = os.path.join(
            os.path.dirname(__file__), "..", "data", "seed7_record.sha256"
        )
        with open(pin_path) as fh:
            pinned = fh.read().split()[0]
        actual = hashlib.sha256(record.encode("utf-8")).hexdigest()
        assert actual == pinned, (
            "an empty plant plan perturbed the seed-7 paper record"
        )


#: The mid-outage cut's ``plant`` component as the scalar plant that
#: preceded the one-pod core wrote it (state version 1).
LEGACY_PLANT = os.path.join(
    os.path.dirname(__file__), "..", "data", "plant_state_v1_mid_outage.json"
)


class TestLegacyPlantState:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        straight_campaign = _chaos_builder().build()
        straight = _record_json(straight_campaign.run(until=UNTIL))
        out = tmp_path_factory.mktemp("plant-v1")
        campaign = _chaos_builder().build()
        campaign.run(until=UNTIL, checkpoint_every=EVERY, checkpoint_dir=str(out))
        cut = campaign.checkpoints_written[MID_OUTAGE_CUT]
        return straight, straight_campaign.plant.census, cut

    def _spliced(self, cut, plant_state, tmp_path):
        from repro.state.checkpoint import read_checkpoint, write_checkpoint

        snapshot = read_checkpoint(cut)
        snapshot.components["plant"] = plant_state
        path = str(tmp_path / "spliced.ckpt")
        assert write_checkpoint(path, snapshot)
        return read_checkpoint(path)

    def test_version1_blob_resumes_byte_identical(self, runs, tmp_path):
        straight, straight_census, cut = runs
        with open(LEGACY_PLANT) as fh:
            legacy = json.load(fh)
        assert legacy["version"] == 1
        snapshot = self._spliced(cut, legacy, tmp_path)
        assert snapshot.sim_time == legacy["last_now"]
        mid = Campaign.restore(snapshot)
        assert mid.plant.shed_host_count() > 0
        assert mid.plant.crac_until > mid.sim.now
        results = mid.continue_run(until=UNTIL)
        assert _record_json(results) == straight
        assert mid.plant.census == straight_census

    @pytest.mark.parametrize(
        "breakage",
        [
            "not a dict",
            {"version": 2},
            {"version": 99},
            "v2: core arrays of the wrong length",
            "v1: census without hosts_lost",
        ],
    )
    def test_malformed_blob_raises_and_changes_nothing(self, runs, breakage, tmp_path):
        from repro.state.codec import pack_floats
        from repro.state.protocol import StateError

        _, _, cut = runs
        mid = Campaign.restore(self._spliced(cut, _v2_blob(cut), tmp_path))
        if breakage == "v2: core arrays of the wrong length":
            blob = mid.plant.state_dict()
            blob["core"]["fan_until"] = pack_floats([1.0, 2.0])
        elif breakage == "v1: census without hosts_lost":
            with open(LEGACY_PLANT) as fh:
                blob = json.load(fh)
            del blob["census"]["hosts_lost"]
        else:
            blob = breakage
        before = mid.plant.state_dict()
        with pytest.raises(StateError):
            mid.plant.load_state_dict(blob)
        assert mid.plant.state_dict() == before
        with pytest.raises(StateError):
            Campaign.restore(self._spliced(cut, blob, tmp_path))


def _v2_blob(cut):
    from repro.state.checkpoint import read_checkpoint

    return read_checkpoint(cut).components["plant"]


class TestFaultTargets:
    """Both paths follow the grammar in ``PlantFault``'s docstring."""

    AT = dt.datetime(2010, 2, 20, 14, 0)  # two hours into a day-1 fault

    def _run(self, plan):
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=7))
            .with_plant_faults(PlantFaultPlan.parse(plan))
            .build()
        )
        campaign.run(until=self.AT)
        return campaign

    def test_feedless_drop_sheds_every_feed(self):
        from repro.hardware.host import HostState

        campaign = self._run("feed:drop@day1,repair=6h")
        for group in ("tent", "basement"):
            states = [h.state for h in campaign.fleet.hosts_in_group(group)]
            assert HostState.SHED in states, group
            assert HostState.RUNNING not in states, group

    def test_fault_on_a_missing_pod_hits_nothing(self):
        campaign = self._run("fan:failure@day1,pod=3,repair=1d")
        assert campaign.control.actuators.fan_severity == 0.0
        assert campaign.fleet.tent.plant_ua_factor == 1.0
        assert campaign.plant.census["faults_injected"] == 0


class TestOnePlantOnBothPaths:
    """Where the scalar plant and the fleet plant used to disagree, the
    faithful path now does what batch mode does."""

    DAY1 = dt.datetime(2010, 2, 20, 12, 0)

    def _campaign(self, plan="", policy=None):
        builder = CampaignBuilder(ExperimentConfig(seed=7))
        if plan:
            builder = builder.with_plant_faults(PlantFaultPlan.parse(plan))
        if policy is not None:
            builder = builder.with_trip_policy(policy)
        campaign = builder.build()
        recorder = EventRecorder()
        recorder.attach(campaign.bus)
        return campaign, recorder

    def test_site_wide_and_pod_channels_compose_by_max(self):
        campaign, recorder = self._campaign(
            "intake:blockage@day1,repair=6h,severity=0.8;"
            "intake:blockage@day1,pod=0,repair=12h,severity=0.4"
        )
        actuators = campaign.control.actuators
        campaign.run(until=self.DAY1 + dt.timedelta(hours=2))
        assert actuators.blockage == 0.8
        campaign.continue_run(until=self.DAY1 + dt.timedelta(hours=8))
        assert actuators.blockage == 0.4
        campaign.continue_run(until=self.DAY1 + dt.timedelta(hours=13))
        assert actuators.blockage == 0.0
        repairs = recorder.of_type(ev.PlantFaultRepaired)
        assert [(e.kind, e.domain) for e in repairs] == [("intake", -1), ("intake", 0)]

    def test_injected_repair_s_is_the_fault_repair(self):
        from repro.plant.faults import PlantStorm, PlantFaultKind

        storm = PlantStorm(PlantFaultKind.FAN_FAILURE, 1.0, seed=3, repair_s=6 * 3600.0)
        campaign, recorder = self._campaign("storm:fan:1.0,repair=6h,seed=3")
        campaign.run(until=self.DAY1)
        injected = recorder.of_type(ev.PlantFaultInjected)
        assert injected
        assert injected[0].repair_s == storm.fault_for(0, 0).repair_s

    def test_feed_drop_publishes_the_fault_before_the_shed(self):
        campaign, recorder = self._campaign("feed:drop@day1,feed=0,repair=2h")
        campaign.run(until=self.DAY1 + dt.timedelta(hours=3))
        order = [
            type(e).__name__
            for e in recorder.events
            if isinstance(
                e,
                (ev.PlantFaultInjected, ev.LoadShed, ev.LoadRestored, ev.PlantFaultRepaired),
            )
        ]
        assert order == [
            "PlantFaultInjected", "LoadShed", "LoadRestored", "PlantFaultRepaired",
        ]

    def test_hosts_lost_counts_until_the_repair_deadline(self):
        campaign, _ = self._campaign("crac:outage@day1,repair=6h")
        campaign.run(until=self.DAY1 + dt.timedelta(hours=1))
        plant = campaign.plant
        now = campaign.sim.now
        assert plant.crac_until > now and plant.shed_host_count() == 0
        failed = ev.HostFailed(time=now, host_id=1)
        campaign.bus.publish(failed)
        assert plant.census["hosts_lost"] == 1
        plant.core.crac_until = now  # deadline reached, not yet expired
        campaign.bus.publish(failed)
        assert plant.census["hosts_lost"] == 1

    def test_flap_stays_on_the_bus_and_cooldown_zero_restores_at_once(self):
        # The CLI grammar wants a positive cool-down; the policy allows 0.
        campaign, recorder = self._campaign(
            policy=ThermalTripPolicy(trip_c=40.0, clear_c=30.0, cooldown_s=0.0)
        )
        campaign.run(until=self.DAY1)
        plant, actuators = campaign.plant, campaign.control.actuators
        tent = campaign.fleet.tent
        assert plant.census["trips"] == 0
        actuators.set_flap(True, campaign.sim.now)  # as the thermostat would

        tent.intake_temp_c = 45.0
        plant._tick()
        assert plant.tripped and plant.shed_host_count() > 0
        assert not recorder.of_type(ev.EmergencyFlapOpened)  # already open

        tent.intake_temp_c = 25.0
        plant._tick()
        assert not plant.tripped and not actuators.flap_open
        assert len(recorder.of_type(ev.EmergencyFlapClosed)) == 1
        # cooldown=0: the clear and the restore land in the same tick.
        assert plant.shed_host_count() == 0
        assert plant.census["hosts_restored"] == plant.census["hosts_shed"]
