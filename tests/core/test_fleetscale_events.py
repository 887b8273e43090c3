"""The batch chaos plane's event stream is pinned.

``perfbench/digests.json`` pins the batch census (summary and plant
census) but not the order of the plant events, and ``repro observe``
reads that order.  This digest covers a small chaos run end to end:
the ordered ``plant_events`` stream (class name and fields), the
summary, the plant census, and the final ``state`` and ``shed_reason``
columns.  It must stay byte-identical to
``tests/data/fleetscale_chaos_events.sha256``.

The run has 1,903 hosts (100 full pods plus a 3-host pod) over four
days, the perfbench fleet plan's clause kinds plus a feed drop, and the
perfbench trip policy, so trips, trip sheds, feed sheds and restores
all fire; the feed drop lands while the tents trip.
"""

import dataclasses
import hashlib
import json
import os

from repro.core.config import ExperimentConfig
from repro.core.fleetscale import FleetScaleCampaign
from repro.plant.faults import PlantFaultPlan
from repro.plant.trip import ThermalTripPolicy
from repro.sim import events as ev

HOSTS = 1903
DAYS = 4.0
PLAN = (
    "crac:outage@day1,repair=12h;"
    "intake:blockage@day2,repair=18h,severity=1.0;"
    "fan:failure@day3,pod=7,repair=8h;"
    "storm:fan:0.01,repair=6h,seed=7;"
    "feed:drop@day2,repair=6h,feed=0"
)
POLICY = "trip=32,clear=27,shed=0.5+1.0,hold=1h,cooldown=6h"
SHA_FILE = os.path.join(
    os.path.dirname(__file__), "..", "data", "fleetscale_chaos_events.sha256"
)


def chaos_run() -> FleetScaleCampaign:
    campaign = FleetScaleCampaign(
        HOSTS,
        ExperimentConfig(seed=7),
        plant_faults=PlantFaultPlan.parse(PLAN),
        trip_policy=ThermalTripPolicy.parse(POLICY),
    )
    campaign.run(DAYS)
    return campaign


def chaos_payload(campaign: FleetScaleCampaign) -> str:
    return json.dumps(
        {
            "events": [
                [type(e).__name__, dataclasses.asdict(e)]
                for e in campaign.plant_events
            ],
            "summary": campaign.summary(),
            "plant_census": campaign.plant_census(),
            "state": campaign.state.tolist(),
            "shed_reason": campaign.shed_reason.tolist(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def test_chaos_event_stream_matches_pinned_digest():
    campaign = chaos_run()
    assert campaign.n_pods == 101
    sheds = campaign.plant_events.of_type(ev.LoadShed)
    restores = campaign.plant_events.of_type(ev.LoadRestored)
    assert campaign.plant.trips > 0
    assert any(e.reason == "trip" for e in sheds)
    assert any(e.reason == "feed" for e in sheds)
    assert {e.reason for e in restores} == {"trip", "feed"}
    with open(SHA_FILE) as fh:
        pinned = fh.read().split()[0]
    digest = hashlib.sha256(chaos_payload(campaign).encode("utf-8")).hexdigest()
    assert digest == pinned
