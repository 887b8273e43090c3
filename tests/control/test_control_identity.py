"""The refactor's hardest invariant: the control plane changes no bytes.

Routing the tent-modification schedule through
``PaperOperatorController`` -> ``ControlPlane`` -> ``ActuatorBus`` must
reproduce the pinned seed-7 record digest exactly -- whether the
controller is left to default or named explicitly.  A single byte of drift here means the refactor perturbed
the physics.
"""

import datetime as dt
import hashlib
import os

from repro.control.controllers import PaperOperatorController
from repro.core.builder import CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.runner.records import record_from_results

UNTIL = dt.datetime(2010, 3, 6, 12, 0)
SHA_FILE = os.path.join(
    os.path.dirname(__file__), "..", "data", "seed7_record.sha256"
)


def pinned_digest():
    with open(SHA_FILE) as fh:
        return fh.read().split()[0]


def run_digest(controller=None):
    builder = CampaignBuilder(ExperimentConfig(seed=7))
    if controller is not None:
        builder.with_controller(controller)
    campaign = builder.build()
    results = campaign.run(until=UNTIL)
    record = record_from_results(7, results, until=UNTIL)
    digest = hashlib.sha256(record.canonical_json().encode("utf-8")).hexdigest()
    return campaign, digest


class TestPaperOperatorIdentity:
    def test_explicit_paper_operator_matches_pinned_digest(self):
        campaign, digest = run_digest(controller="paper-operator")
        assert digest == pinned_digest()
        # The whole schedule replayed, through the bus.
        controller = campaign.control.controller
        assert isinstance(controller, PaperOperatorController)
        assert controller.applied == [
            plan.modification.letter
            for plan in campaign.config.modification_plans
            if campaign.clock.to_seconds(plan.date)
            <= campaign.clock.to_seconds(UNTIL)
        ]
        assert campaign.control.actuators.actions_applied == len(
            controller.applied
        )

    def test_default_construction_routes_through_the_control_plane(self):
        campaign, digest = run_digest(controller=None)
        assert digest == pinned_digest()
        assert campaign.control.controller.name == "paper-operator"
        # The paper operator is pure wakes: no periodic tick ever ran.
        assert campaign.control.controller.interval_s is None
        assert campaign.control.ticks == 0
