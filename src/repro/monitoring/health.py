"""Host health: separating "one dropped handshake" from "died at -22 degC".

The paper's census was *observed* through Section 3.5's 20-minute
SSH/rsync rounds, and the historical collector conflated every failed
contact with a dead host: one transient SSH timeout would have fired
the operator's ``on_down_host`` intervention.  The cloud
thermal-management literature (PAPERS.md) stresses the same
transient-vs-permanent discrimination for exactly this reason -- acting
on unconfirmed signals wastes interventions and poisons the failure
record.

:class:`HealthPolicy` says how sceptical the monitoring host should be:

- ``confirm_rounds`` consecutive failed observations are required
  before a host is *confirmed* down/unreachable and the operator
  playbook is invoked.  The default of 1 keeps the historical
  behaviour byte-identical: every failed observation confirms
  immediately and no SUSPECT state ever exists.
- ``retry`` (a :class:`repro.runner.policy.RetryPolicy`) gives each
  host extra SSH attempts *within* a round, with the runner's
  seeded-jitter backoff accounting the wall time the monitoring host
  spends waiting.

:class:`HealthTracker` runs the per-host state machine::

    UP --failure--> SUSPECT --(streak == confirm_rounds)--> DOWN/UNREACHABLE
     ^                 |                                        |
     +---- success ----+----------------- success --------------+

A success from SUSPECT is a *suppressed false alarm* (the collector
counts it and publishes :class:`~repro.sim.events.HostRecovered`); a
success from a confirmed state is an ordinary repair and stays silent,
exactly as the historical collector was.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict

from repro.runner.policy import RetryPolicy
from repro.state.protocol import check_version, parsing

_STATE_VERSION = 1


class HostHealthState(enum.Enum):
    """The monitoring host's belief about one host."""

    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"
    UNREACHABLE = "unreachable"


#: The failure kinds :meth:`HealthTracker.observe_failure` accepts.
_FAILURE_KINDS = (HostHealthState.DOWN, HostHealthState.UNREACHABLE)


@dataclass(frozen=True)
class HealthPolicy:
    """How sceptical the collector is about failed observations.

    The default (one confirmation round, one SSH attempt) reproduces
    the historical collector byte for byte.
    """

    confirm_rounds: int = 1
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        if self.confirm_rounds < 1:
            raise ValueError("need at least one confirmation round")


@dataclass
class HostHealth:
    """One host's current standing with the monitoring host."""

    state: HostHealthState = HostHealthState.UP
    streak: int = 0  # consecutive failed observations

    @property
    def suspect(self) -> bool:
        return self.state is HostHealthState.SUSPECT


@dataclass(frozen=True)
class HealthObservation:
    """What one failed observation did to the host's standing."""

    confirmed: bool
    state: HostHealthState
    streak: int


class HealthTracker:
    """The per-host health state machine behind the collection rounds."""

    def __init__(self, policy: HealthPolicy) -> None:
        self.policy = policy
        self._hosts: Dict[int, HostHealth] = {}
        self.false_alarms_suppressed = 0

    def __repr__(self) -> str:
        suspects = sum(1 for h in self._hosts.values() if h.suspect)
        return (
            f"HealthTracker(hosts={len(self._hosts)}, suspects={suspects}, "
            f"suppressed={self.false_alarms_suppressed})"
        )

    def health(self, host_id: int) -> HostHealth:
        """The host's standing, created UP on first sight."""
        state = self._hosts.get(host_id)
        if state is None:
            state = HostHealth()
            self._hosts[host_id] = state
        return state

    def observe_ok(self, host_id: int) -> int:
        """A successful contact.  Returns the suppressed suspect streak.

        A host that was SUSPECT recovers without ever reaching the
        operator: the return value is the length of the suspicion
        streak just suppressed (0 for hosts that were UP or whose
        outage was already confirmed -- a confirmed host coming back is
        an ordinary repair, not a false alarm).
        """
        state = self._hosts.get(host_id)
        if state is None or (state.state is HostHealthState.UP and state.streak == 0):
            return 0
        suppressed = state.streak if state.suspect else 0
        if suppressed:
            self.false_alarms_suppressed += 1
        state.state = HostHealthState.UP
        state.streak = 0
        return suppressed

    def observe_failure(
        self, host_id: int, kind: HostHealthState
    ) -> HealthObservation:
        """A failed contact of the given kind (DOWN or UNREACHABLE).

        Failure streaks accumulate across kinds -- a host behind a dead
        switch that also stops answering is one continuing outage, and
        the observation reports the *current* round's kind, exactly as
        the historical per-round checks did.
        """
        if kind not in _FAILURE_KINDS:
            raise ValueError(f"not a failure kind: {kind!r}")
        state = self.health(host_id)
        state.streak += 1
        if state.streak >= self.policy.confirm_rounds:
            state.state = kind
            return HealthObservation(confirmed=True, state=kind, streak=state.streak)
        state.state = HostHealthState.SUSPECT
        return HealthObservation(
            confirmed=False, state=HostHealthState.SUSPECT, streak=state.streak
        )

    def forget(self, host_id: int) -> None:
        """Drop a host's standing (unregistered from the collector)."""
        self._hosts.pop(host_id, None)

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": _STATE_VERSION,
            "false_alarms_suppressed": self.false_alarms_suppressed,
            "hosts": {
                str(host_id): [h.state.value, h.streak]
                for host_id, h in sorted(self._hosts.items())
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        with parsing("health_tracker"):
            check_version("health_tracker", state, _STATE_VERSION)
            false_alarms_suppressed = int(state["false_alarms_suppressed"])
            hosts = {
                int(host_id): HostHealth(
                    state=HostHealthState(value), streak=int(streak)
                )
                for host_id, (value, streak) in state["hosts"].items()
            }
        self.false_alarms_suppressed = false_alarms_suppressed
        self._hosts = hosts

    def state_of(self, host_id: int) -> HostHealthState:
        """The host's current believed state (UP if never observed)."""
        state = self._hosts.get(host_id)
        return state.state if state is not None else HostHealthState.UP

    def suspects(self) -> Dict[int, int]:
        """Currently-suspect hosts and their streaks, by host id."""
        return {
            host_id: h.streak
            for host_id, h in sorted(self._hosts.items())
            if h.suspect
        }
