"""Gym-style episode facade over a campaign.

:class:`ControlEnv` exposes the ``reset() / step(action)`` loop of the
DRL free-cooled-datacenter literature (Le et al.) on our plant.  The
first ``reset()`` builds a campaign, advances it to the episode start,
and caches a :class:`~repro.state.checkpoint.CampaignCheckpoint` in
memory; every later ``reset()`` restores that checkpoint instead of
re-running the warm-up, which is what makes thousand-episode training
loops affordable.

``step`` applies the supplied action at the paused instant, advances one
control interval, and returns ``(obs, reward, done, info)``.  The reward
is a configurable weighted penalty on energy burned, failures logged,
and SLA lost (shed host-hours) over the interval -- all negated, so "do
nothing while nothing breaks" scores near zero and better operation
scores higher.

Everything stays deterministic: same seed + same action trace =>
byte-identical observation and reward traces, and a mid-episode
``campaign.checkpoint()`` resumes exactly (controller and actuator state
ride along in the campaign's ``control`` component).
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from typing import Any, Dict, Optional, Tuple, Union

from repro.control.controllers import ControlAction, Controller
from repro.control.observation import ControlObservation


@dataclasses.dataclass(frozen=True)
class RewardSpec:
    """Weights of the per-step penalty terms (all applied to deltas).

    ``reward = -(energy_weight * kWh + failure_weight * faults
    + sla_weight * shed host-hours)`` per interval.
    """

    energy_weight: float = 1.0
    failure_weight: float = 10.0
    sla_weight: float = 1.0


class ControlEnv:
    """``reset() / step(action)`` over one campaign configuration.

    Parameters mirror the campaign builder: ``config`` (default paper
    config), ``controller`` (name or instance; the in-campaign policy,
    usually ``"paper-operator"`` so the historical schedule still plays
    under the agent's actions), episode window, control interval, and
    reward weights.
    """

    def __init__(
        self,
        config=None,
        controller: Union[None, str, Controller] = "paper-operator",
        episode_start: Optional[dt.datetime] = None,
        episode_end: Optional[dt.datetime] = None,
        interval_s: Optional[float] = None,
        reward: RewardSpec = RewardSpec(),
    ) -> None:
        from repro.core.config import ExperimentConfig

        self.config = config if config is not None else ExperimentConfig()
        self.controller = controller
        self.episode_start = (
            episode_start
            if episode_start is not None
            else dt.datetime(2010, 3, 1, 12, 0)
        )
        self.episode_end = (
            episode_end if episode_end is not None else self.config.end_date
        )
        if self.episode_end <= self.episode_start:
            raise ValueError("episode_end must fall after episode_start")
        self.interval_s = (
            float(interval_s)
            if interval_s is not None
            else float(self.config.tick_interval_s)
        )
        self.reward = reward
        self.campaign = None
        self._checkpoint = None
        self._end_s: Optional[float] = None
        self._energy_cursor = 0.0
        self._failure_cursor = 0
        self.episodes = 0
        self.steps = 0

    # ------------------------------------------------------------------
    # Episode lifecycle
    # ------------------------------------------------------------------
    def _build(self):
        from repro.core.builder import CampaignBuilder

        campaign = (
            CampaignBuilder(self.config)
            .with_controller(self.controller)
            .build()
        )
        campaign.begin(until=self.episode_end)
        campaign.advance_to(self.episode_start)
        return campaign

    def reset(self) -> ControlObservation:
        """Start a fresh episode at the cached warm-up point."""
        if self._checkpoint is None:
            self.campaign = self._build()
            self._checkpoint = self.campaign.checkpoint()
        else:
            from repro.core.builder import Campaign

            self.campaign = Campaign.restore(self._checkpoint)
        self._end_s = self.campaign.clock.to_seconds(self.episode_end)
        self._energy_cursor = self.campaign.powermeter.energy_kwh
        self._failure_cursor = len(self.campaign.fleet.fault_log.events)
        self.episodes += 1
        self.steps = 0
        return self.campaign.control.observe(self.campaign.sim.now)

    def step(
        self, action: Optional[ControlAction] = None
    ) -> Tuple[ControlObservation, float, bool, Dict[str, Any]]:
        """Apply ``action`` now, advance one interval, score the delta."""
        if self.campaign is None or self._end_s is None:
            raise RuntimeError("call reset() before step()")
        campaign = self.campaign
        now = campaign.sim.now
        applied = 0
        if action is not None:
            applied = campaign.control.apply(action, now)
        target = min(now + self.interval_s, self._end_s)
        campaign.advance_to(target)
        obs = campaign.control.observe(campaign.sim.now)

        energy_kwh = campaign.powermeter.energy_kwh - self._energy_cursor
        failures = len(campaign.fleet.fault_log.events) - self._failure_cursor
        self._energy_cursor = campaign.powermeter.energy_kwh
        self._failure_cursor = len(campaign.fleet.fault_log.events)
        interval_h = (campaign.sim.now - now) / 3600.0
        shed_host_hours = obs.hosts_shed * interval_h
        reward = -(
            self.reward.energy_weight * energy_kwh
            + self.reward.failure_weight * failures
            + self.reward.sla_weight * shed_host_hours
        )
        done = campaign.sim.now >= self._end_s
        self.steps += 1
        info = {
            "energy_kwh": energy_kwh,
            "failures": failures,
            "shed_host_hours": shed_host_hours,
            "actions_applied": applied,
            "step": self.steps,
            "time_s": campaign.sim.now,
        }
        return obs, reward, done, info

    def close(self) -> None:
        """Drop the live campaign (the cached checkpoint is kept)."""
        self.campaign = None
