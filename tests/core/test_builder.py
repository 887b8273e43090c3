"""Tests for the campaign builder."""

import datetime as dt

import pytest

from repro import Experiment, ExperimentConfig
from repro.core.builder import Campaign, CampaignBuilder, DEFAULT_INSTRUMENTS
from repro.runner.records import record_from_results
from repro.sim.events import HostInstalled


class FakeInstrument:
    """Minimal attach/detach instrument for composability tests."""

    def __init__(self):
        self.samples = []
        self._handle = None

    def attach(self, sim, start=None):
        first = sim.now if start is None else start
        sim.register("fake.sample", lambda: self.samples.append(sim.now))
        self._handle = sim.every_key(
            3600.0, "fake.sample", start=first, label="fake-instrument"
        )

    def detach(self):
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class TestBuilderApi:
    def test_default_build_is_fully_wired(self):
        campaign = CampaignBuilder(ExperimentConfig(seed=1)).build()
        assert isinstance(campaign, Campaign)
        for name in DEFAULT_INSTRUMENTS:
            assert campaign.enabled(name)
        assert campaign.bus is not None
        assert campaign.fleet.bus is campaign.bus
        assert campaign.policy.bus is campaign.bus
        assert campaign.monitoring.bus is campaign.bus
        assert campaign.fleet.ledger.bus is campaign.bus

    def test_without_unknown_instrument_rejected(self):
        with pytest.raises(ValueError):
            CampaignBuilder(ExperimentConfig(seed=1)).without("flux-capacitor")

    def test_with_instrument_rejects_default_names(self):
        builder = CampaignBuilder(ExperimentConfig(seed=1))
        with pytest.raises(ValueError):
            builder.with_instrument("webcam", lambda c: FakeInstrument())

    def test_with_instrument_rejects_duplicates(self):
        builder = CampaignBuilder(ExperimentConfig(seed=1))
        builder.with_instrument("fake", lambda c: FakeInstrument())
        with pytest.raises(ValueError):
            builder.with_instrument("fake", lambda c: FakeInstrument())

    def test_run_twice_rejected(self):
        campaign = CampaignBuilder(ExperimentConfig(seed=1)).build()
        campaign.run(until=dt.datetime(2010, 2, 16))
        with pytest.raises(RuntimeError):
            campaign.run(until=dt.datetime(2010, 2, 17))

    def test_with_link_faults_rejects_wrong_type(self):
        builder = CampaignBuilder(ExperimentConfig(seed=1))
        with pytest.raises(TypeError):
            builder.with_link_faults("storm:0.5")  # spec string, not a plan

    def test_with_health_policy_rejects_wrong_type(self):
        builder = CampaignBuilder(ExperimentConfig(seed=1))
        with pytest.raises(TypeError):
            builder.with_health_policy({"confirm_rounds": 2})

    def test_degraded_wiring_reaches_the_collector(self):
        from repro.monitoring.health import HealthPolicy
        from repro.monitoring.transport import LinkFaultPlan, LinkStorm

        plan = LinkFaultPlan(storm=LinkStorm(probability=0.1, seed=2))
        policy = HealthPolicy(confirm_rounds=2)
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=1))
            .with_link_faults(plan)
            .with_health_policy(policy)
            .build()
        )
        assert campaign.monitoring.link_faults is plan
        assert campaign.monitoring.health_policy is policy


class TestComposition:
    UNTIL = dt.datetime(2010, 2, 21)

    def test_without_webcam_schedules_no_frames(self):
        campaign = CampaignBuilder(ExperimentConfig(seed=2)).without("webcam").build()
        campaign.run(until=self.UNTIL)
        assert campaign.webcam.frames == []

    def test_without_prototype_skips_phase_one(self):
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=2)).without("prototype").build()
        )
        results = campaign.run(until=self.UNTIL)
        assert campaign.prototype_result is None
        assert results.prototype is None

    def test_extra_instrument_attached_at_test_start(self):
        fake = FakeInstrument()
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=2))
            .with_instrument("fake", lambda c: fake)
            .build()
        )
        assert campaign.instruments["fake"] is fake
        campaign.run(until=self.UNTIL)
        test_start = campaign.clock.to_seconds(campaign.config.test_start)
        assert fake.samples
        assert fake.samples[0] == test_start

    def test_subscriber_observes_installs(self):
        installs = []
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=2))
            .with_subscriber(
                lambda bus: bus.subscribe(HostInstalled, installs.append)
            )
            .build()
        )
        campaign.run(until=self.UNTIL)
        # Feb 19: the first three tent/basement pairs.
        assert {e.host_id for e in installs} == {1, 2, 3, 4, 5, 7}


class TestFacadeEquivalence:
    def test_experiment_facade_matches_direct_build(self):
        until = dt.datetime(2010, 2, 22)
        via_facade = Experiment(ExperimentConfig(seed=3)).run(until=until)
        via_builder = CampaignBuilder(ExperimentConfig(seed=3)).build().run(until=until)
        assert via_facade.summary() == via_builder.summary()
        assert via_facade.ledger.runs_per_host == via_builder.ledger.runs_per_host
        assert via_facade.fault_log.events == via_builder.fault_log.events
        assert via_facade.event_counts() == via_builder.event_counts()

    def test_extra_instrument_does_not_perturb_the_run(self):
        until = dt.datetime(2010, 2, 22)
        plain = CampaignBuilder(ExperimentConfig(seed=3)).build().run(until=until)
        instrumented = (
            CampaignBuilder(ExperimentConfig(seed=3))
            .with_instrument("fake", lambda c: FakeInstrument())
            .build()
            .run(until=until)
        )
        assert plain.summary() == instrumented.summary()
        assert plain.ledger.runs_per_host == instrumented.ledger.runs_per_host
        assert list(plain.outside_temperature().values) == list(
            instrumented.outside_temperature().values
        )


class TestSteppedDriver:
    """The contract ``begin``/``advance_to``/``finish`` shares with ``run``."""

    UNTIL = dt.datetime(2010, 2, 26)

    def _record(self, results):
        return record_from_results(7, results, until=self.UNTIL).canonical_json()

    def test_stepped_run_matches_one_shot(self):
        straight = CampaignBuilder(ExperimentConfig(seed=7)).build().run(until=self.UNTIL)
        stepped = CampaignBuilder(ExperimentConfig(seed=7)).build()
        end = stepped.begin(until=self.UNTIL)
        assert end == stepped.clock.to_seconds(self.UNTIL)
        # Uneven segments, as datetimes and as simulated seconds.
        stepped.advance_to(dt.datetime(2010, 2, 19, 12, 0, 1))
        stepped.advance_to(stepped.clock.to_seconds(dt.datetime(2010, 2, 20, 3, 17)))
        stepped.advance_to(dt.datetime(2010, 2, 23, 23, 59))
        stepped.advance_to(end)
        assert self._record(stepped.finish()) == self._record(straight)

    def test_begin_after_run_rejected(self):
        campaign = CampaignBuilder(ExperimentConfig(seed=1)).build()
        campaign.run(until=dt.datetime(2010, 2, 16))
        with pytest.raises(RuntimeError):
            campaign.begin(until=dt.datetime(2010, 2, 17))

    def test_run_after_begin_rejected(self):
        campaign = CampaignBuilder(ExperimentConfig(seed=1)).build()
        campaign.begin(until=dt.datetime(2010, 2, 16))
        with pytest.raises(RuntimeError):
            campaign.run(until=dt.datetime(2010, 2, 17))

    def test_begin_before_prototype_end_rejected(self):
        campaign = CampaignBuilder(ExperimentConfig(seed=1)).build()
        with pytest.raises(ValueError):
            campaign.begin(until=dt.datetime(2010, 2, 14))

    def test_traced_continue_run_records_one_run_span(self):
        cuts = []
        campaign = CampaignBuilder(ExperimentConfig(seed=7)).with_telemetry().build()
        campaign.run(
            until=self.UNTIL,
            checkpoint_every=2 * 86_400.0,
            on_checkpoint=lambda path, snapshot: cuts.append(snapshot),
        )
        resumed = Campaign.restore(cuts[0])
        results = resumed.continue_run()
        telemetry = resumed.telemetry
        assert telemetry.spans.counts()["campaign.run"] == 1
        gauges = {gauge.name: gauge.value for gauge in telemetry.metrics.gauges()}
        assert gauges["engine.sim_end_s"] == results.end_time
        assert gauges["engine.events_fired"] == resumed.sim.events_fired
        assert {
            "engine.events_cancelled",
            "engine.pending_at_end",
            "engine.heap_compactions",
        } <= set(gauges)
