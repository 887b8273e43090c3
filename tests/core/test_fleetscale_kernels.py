"""The batch frame's array kernels agree with their per-host meaning.

- The hazard pass keeps a precomputed base-rate failure probability and
  recomputes ``1 - exp(rate * c)`` only for the hosts whose rate a
  frame scales; that is exact only if numpy's ``exp`` gives each element
  the same bits whether it is computed in the whole array or in a
  fancy-indexed subset.
- The trip pass sheds and restores every pod of a frame in one array
  pass, and ``FleetPlant.evaluate`` applies each trip transition as one
  masked update.  Both are checked against the per-pod loops they
  replaced, kept here as references, and one shed frame is spelled out
  by hand.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExperimentConfig
from repro.core.fleetscale import (
    _SHED_FEED,
    _SHED_TRIP,
    FAILED,
    POD_SIZE,
    RUNNING,
    SHED,
    FleetScaleCampaign,
)
from repro.plant.fleet import FleetPlant
from repro.plant.trip import ThermalTripPolicy
from repro.sim import events as ev

STAGES = (0.3, 0.6, 1.0)


class TestSubsetExp:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=1, max_value=5000),
        density=st.floats(min_value=0.0, max_value=1.0),
        scale=st.sampled_from([-1 / 6, -0.5, -1.0, -24.0]),  # -dt/3600 per tick
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_subset_matches_full_array(self, seed, size, density, scale):
        rng = np.random.default_rng(seed)
        rates = rng.lognormal(mean=-10.0, sigma=3.0, size=size)
        rates[rng.random(size) < 0.1] *= 2.0 ** rng.uniform(0.0, 8.0)
        mask = rng.random(size) < density
        full = 1.0 - np.exp(rates * scale)
        sub = np.flatnonzero(mask)
        subset = 1.0 - np.exp(rates[sub] * scale)
        assert np.array_equal(subset, full[sub])
        # Spliced into the base array, the subset rebuilds the full one.
        base = full.copy()
        base[sub] = subset
        assert np.array_equal(base, full)


def _tent_hosts(pod: int, n_hosts: int, campaign: FleetScaleCampaign) -> list:
    lo = pod * POD_SIZE
    return [
        h for h in range(lo, min(n_hosts, lo + POD_SIZE)) if campaign.tent_mask[h]
    ]


class TestShedFrame:
    def test_one_frame_sheds_stages_one_and_two(self):
        hosts = 5 * POD_SIZE + 3  # pod 5 is a 3-host partial pod
        campaign = FleetScaleCampaign(
            hosts,
            ExperimentConfig(seed=7),
            record_series=True,
            trip_policy=ThermalTripPolicy.parse("shed=0.5+1.0"),
        )
        tent = {p: _tent_hosts(p, hosts, campaign) for p in range(campaign.n_pods)}
        assert [len(tent[p]) for p in range(6)] == [9, 9, 9, 9, 9, 3]
        # Pod 1 lost its first five tent hosts to an earlier stage 1;
        # pod 4 too, and stays at stage 1.  Pods 2 and 5 have failed
        # tent hosts.  Pod 3 lost a tent host to a feed drop, which does
        # not count toward the trip's shed fraction.
        campaign._apply_shed(np.array(tent[1][:5]), _SHED_TRIP)
        campaign._apply_shed(np.array(tent[4][:5]), _SHED_TRIP)
        campaign.state[tent[2][:3:2]] = FAILED
        campaign.state[tent[5][0]] = FAILED
        campaign._apply_shed(np.array(tent[3][:1]), _SHED_FEED)
        before = campaign.state.copy()
        running_before = campaign._pod_running.copy()
        power_before = campaign._pod_power.copy()
        shed_before = campaign.plant.hosts_shed
        start = len(campaign.plant_events)

        # The plant's order: fired pods ascending, then escalated ones.
        campaign._shed_pods(
            [
                (0, 1, 0.5),
                (2, 1, 0.5),
                (3, 1, 0.5),
                (4, 1, 0.5),
                (1, 2, 1.0),
                (5, 2, 1.0),
            ],
            now=123.0,
        )

        newly = np.flatnonzero((before != SHED) & (campaign.state == SHED))
        expected = sorted(
            tent[0][:5]  # ceil(0.5 * 9) = 5
            + [tent[2][1]] + tent[2][3:7]  # skips the two failed hosts
            + tent[3][1:6]  # the feed-shed host is not a trip shed
            + tent[1][5:]  # 9 - 5 already shed
            + tent[5][1:]  # the partial pod's two running tent hosts
        )
        assert newly.tolist() == expected
        assert (campaign.shed_reason[newly] == _SHED_TRIP).all()
        assert campaign.state[tent[3][0]] == SHED
        assert campaign.shed_reason[tent[3][0]] == _SHED_FEED
        assert (campaign.state[tent[2][:3:2]] == FAILED).all()
        assert (campaign.state[tent[4][5:]] == RUNNING).all()

        published = campaign.plant_events.events[start:]
        assert published == [
            ev.LoadShed(time=123.0, pod=0, hosts=5, stage=1, reason="trip"),
            ev.LoadShed(time=123.0, pod=2, hosts=5, stage=1, reason="trip"),
            ev.LoadShed(time=123.0, pod=3, hosts=5, stage=1, reason="trip"),
            ev.LoadShed(time=123.0, pod=1, hosts=4, stage=2, reason="trip"),
            ev.LoadShed(time=123.0, pod=5, hosts=2, stage=2, reason="trip"),
        ]
        assert campaign.plant.hosts_shed - shed_before == len(expected)

        # The observatory's per-pod gauges lose exactly those hosts, each
        # pod's power summed in ascending host order.
        pods = campaign.pod[newly]
        n_pods = campaign.n_pods
        assert np.array_equal(
            running_before - campaign._pod_running,
            np.bincount(pods, minlength=n_pods),
        )
        assert np.array_equal(
            campaign._pod_power,
            power_before
            - np.bincount(
                pods, weights=campaign.avg_power_w[newly], minlength=n_pods
            ),
        )


def reference_shed_restore(state, reason, tent_mask, pod_power, power, shed, restore):
    """The per-pod loops the batch shed and restore replaced."""
    n_hosts = len(state)
    events = []

    def segment(pod):
        lo = pod * POD_SIZE
        return lo, slice(lo, min(n_hosts, lo + POD_SIZE))

    for pod, stage, fraction in shed:
        lo, seg = segment(pod)
        target = math.ceil(fraction * int(tent_mask[seg].sum()))
        already = int(((state[seg] == SHED) & (reason[seg] == _SHED_TRIP)).sum())
        idx = np.flatnonzero(tent_mask[seg] & (state[seg] == RUNNING)) + lo
        idx = idx[: max(0, target - already)]
        if len(idx):
            state[idx] = SHED
            reason[idx] = _SHED_TRIP
            pod_power[pod] -= np.bincount([0] * len(idx), weights=power[idx])[0]
            events.append(ev.LoadShed(time=0.0, pod=pod, hosts=len(idx), stage=stage))
    for pod in restore:
        lo, seg = segment(pod)
        idx = np.flatnonzero((state[seg] == SHED) & (reason[seg] == _SHED_TRIP)) + lo
        if len(idx):
            state[idx] = RUNNING
            reason[idx] = 0
            pod_power[pod] += np.bincount([0] * len(idx), weights=power[idx])[0]
            events.append(ev.LoadRestored(time=0.0, pod=pod, hosts=len(idx)))
    return events


class TestShedRestoreAgainstLoops:
    @given(
        n_hosts=st.integers(min_value=1, max_value=8 * POD_SIZE - 1),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_batch_pass_matches_per_pod_loops(self, n_hosts, seed):
        rng = np.random.default_rng(seed)
        campaign = FleetScaleCampaign(
            n_hosts, record_series=True, trip_policy=ThermalTripPolicy()
        )
        # Any mix of running, failed, trip-shed and feed-shed hosts.
        kind = rng.choice(4, size=n_hosts, p=[0.55, 0.1, 0.25, 0.1])
        campaign.state[:] = np.array([RUNNING, FAILED, SHED, SHED])[kind]
        campaign.shed_reason[:] = np.array([0, 0, _SHED_TRIP, _SHED_FEED])[kind]
        campaign._pod_power[:] = rng.uniform(0.0, 2000.0, campaign.n_pods)
        pods = rng.permutation(campaign.n_pods)
        n_shed = int(rng.integers(0, len(pods) + 1))
        shed = []
        for pod in pods[:n_shed].tolist():
            stage = int(rng.integers(1, len(STAGES) + 1))
            shed.append((pod, stage, STAGES[stage - 1]))
        restore = sorted(p for p in pods[n_shed:].tolist() if rng.random() < 0.7)

        state, reason = campaign.state.copy(), campaign.shed_reason.copy()
        pod_power = campaign._pod_power.copy()
        expected = reference_shed_restore(
            state, reason, campaign.tent_mask, pod_power, campaign.avg_power_w,
            shed, restore,
        )
        start = len(campaign.plant_events)
        if shed:
            campaign._shed_pods(shed, now=0.0)
        if restore:
            campaign._restore_pods(restore, now=0.0)

        assert campaign.plant_events.events[start:] == expected
        assert np.array_equal(campaign.state, state)
        assert np.array_equal(campaign.shed_reason, reason)
        assert np.array_equal(campaign._pod_power, pod_power)


class ReferenceTrips:
    """The per-pod loop ``FleetPlant.evaluate`` replaced."""

    def __init__(self, policy: ThermalTripPolicy, n_pods: int) -> None:
        self.pol = policy
        self.tripped = [False] * n_pods
        self.stage = [0] * n_pods
        self.deadline = [math.inf] * n_pods
        self.restore_at = [math.inf] * n_pods
        self.flap = [False] * n_pods

    def evaluate(self, now, intake):
        pol, pods = self.pol, range(len(intake))
        events, shed, restore = [], [], []
        hot = [t >= pol.trip_c for t in intake]
        for p in pods:
            if not self.tripped[p] and hot[p]:
                self.tripped[p] = True
                self.stage[p] = max(self.stage[p], 1)
                self.deadline[p] = now + pol.stage_hold_s
                self.restore_at[p] = math.inf
                stage = self.stage[p]
                events.append(ev.ThermalTrip(now, p, intake[p], stage))
                if pol.emergency_flap and not self.flap[p]:
                    self.flap[p] = True
                    events.append(ev.EmergencyFlapOpened(now, p))
                shed.append((p, stage, pol.stage_fraction(stage)))
        for p in pods:
            if (
                self.tripped[p] and hot[p] and self.deadline[p] <= now
                and self.stage[p] < pol.max_stage
            ):
                self.stage[p] += 1
                self.deadline[p] = now + pol.stage_hold_s
                stage = self.stage[p]
                events.append(ev.ThermalTrip(now, p, intake[p], stage))
                shed.append((p, stage, pol.stage_fraction(stage)))
        for p in pods:
            if self.tripped[p] and intake[p] <= pol.clear_c:
                self.tripped[p] = False
                self.deadline[p] = math.inf
                self.restore_at[p] = now + pol.cooldown_s
                events.append(ev.ThermalTripCleared(now, p, intake[p]))
                if self.flap[p]:
                    self.flap[p] = False
                    events.append(ev.EmergencyFlapClosed(now, p))
        for p in pods:
            if not self.tripped[p] and self.stage[p] > 0 and self.restore_at[p] <= now:
                self.stage[p] = 0
                self.restore_at[p] = math.inf
                restore.append(p)
        return events, shed, restore


class TestEvaluateAgainstLoop:
    @given(
        n_pods=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        hold_s=st.sampled_from([1800.0, 3600.0, 5400.0]),
        cooldown_s=st.sampled_from([0.0, 1800.0, 7200.0]),
        stages=st.sampled_from([(1.0,), (0.5, 1.0), STAGES]),
        flap=st.booleans(),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_masked_updates_match_per_pod_loop(
        self, n_pods, seed, hold_s, cooldown_s, stages, flap
    ):
        policy = ThermalTripPolicy(
            trip_c=32.0, clear_c=27.0, shed_stages=stages,
            stage_hold_s=hold_s, cooldown_s=cooldown_s, emergency_flap=flap,
        )
        bus = ev.EventBus()
        recorder = ev.EventRecorder()
        recorder.attach(bus)
        plant = FleetPlant(None, policy, n_pods, 0.0, bus=bus)
        reference = ReferenceTrips(policy, n_pods)
        rng = np.random.default_rng(seed)
        # A random walk that crosses both thresholds, in whole-pod steps.
        intake = rng.uniform(24.0, 36.0, n_pods)
        for tick in range(1, 61):
            now = tick * 1800.0
            intake = np.clip(intake + rng.normal(0.0, 3.0, n_pods), 20.0, 40.0)
            if rng.random() < 0.3:
                # The paper campaign copies a thermostat-driven flap in.
                plant.flap[:] = rng.random(n_pods) < 0.5
                reference.flap = plant.flap.tolist()
            start = len(recorder)
            shed, restore = plant.evaluate(now, 1800.0, intake)
            events, ref_shed, ref_restore = reference.evaluate(now, intake.tolist())
            assert recorder.events[start:] == events
            assert (list(shed), list(restore)) == (ref_shed, ref_restore)
        assert plant.tripped.tolist() == reference.tripped
        assert plant.stage.tolist() == reference.stage
        assert plant.flap.tolist() == reference.flap
        assert plant.stage_deadline.tolist() == reference.deadline
        assert plant.restore_at.tolist() == reference.restore_at
