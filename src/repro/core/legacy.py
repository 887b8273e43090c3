"""Checkpoints written while samplers and archivers still queued events.

Before the Lascar logger, the weather station and the archivers ran off
the event heap, each kept its next sample or phase change in the engine
blob: a ``lascar.sample`` or ``station.observe`` periodic task, or one
pending ``archiver.step.<host id>`` event per archiver.  Their own blobs
(version 1) held only the rest.

:func:`upgrade_event_sources` rewrites such a checkpoint's components
into the current layout: it takes those entries out of the engine blob
and stores each one's time -- and, for quiet steps, its ``seq`` -- in
its owner's version-2 blob.  A quiet step keeps the ``seq`` of the event
it replaces, so it runs exactly where that event would have fired and
the resumed run stays byte-identical to the uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.state.protocol import parsing

_ARCHIVER_KEY = "archiver.step."
_PERIODIC_KEY = "engine.periodic"


def upgrade_event_sources(components: Dict[str, Any]) -> Dict[str, Any]:
    """``components`` in the current layout; the input is left unchanged.

    Components already in the current layout are returned as they are.
    A malformed legacy checkpoint raises
    :class:`~repro.state.protocol.StateError`.
    """
    with parsing("checkpoint"):
        fleet = components["fleet"]
        archivers = fleet["archivers"]
        legacy = [components["lascar"], components["station"], *archivers.values()]
        if not any(blob.get("version") == 1 for blob in legacy):
            return components
        engine = dict(components["engine"])
        queue: List[Dict[str, Any]] = list(engine["queue"])
        periodic: Dict[str, Dict[str, Any]] = dict(engine["periodic"])

        def take_periodic(key: str) -> Optional[Tuple[float, int]]:
            """Remove ``key``'s recurrence; the time and seq of its next firing."""
            found = None
            for task_id in [t for t, task in periodic.items() if task["key"] == key]:
                task = periodic.pop(task_id)
                for entry in [
                    e for e in queue
                    if e["key"] == _PERIODIC_KEY and list(e["args"]) == [int(task_id)]
                ]:
                    queue.remove(entry)
                    if not (entry["cancelled"] or task["cancelled"]):
                        found = (float(entry["time"]), int(entry["seq"]))
            return found

        steps: Dict[str, Tuple[float, int]] = {}
        for entry in [e for e in queue if (e["key"] or "").startswith(_ARCHIVER_KEY)]:
            queue.remove(entry)
            if not entry["cancelled"]:
                steps[entry["key"][len(_ARCHIVER_KEY):]] = (
                    float(entry["time"]),
                    int(entry["seq"]),
                )

        out = dict(components)
        lascar = components["lascar"]
        if lascar["version"] == 1:
            sample = take_periodic("lascar.sample")
            out["lascar"] = {
                "version": 2,
                "next": None if sample is None else [sample[0], sample[1], 0],
                "readings": lascar["readings"],
                "removal_episodes": lascar["removal_episodes"],
            }
        station = components["station"]
        if station["version"] == 1:
            observe = take_periodic("station.observe")
            out["station"] = {
                "version": 2,
                "next": None if observe is None else observe[0],
                "readings": station["readings"],
            }
        upgraded = {}
        for host_id, blob in archivers.items():
            if blob["version"] == 1:
                step = steps.get(str(int(host_id)))
                blob = {
                    "version": 2,
                    "phase": blob["phase"],
                    "cycle_start": blob["cycle_start"],
                    "alive": blob["alive"],
                    "next": None if step is None else [step[0], step[1], 0],
                }
            upgraded[host_id] = blob
        engine["queue"] = queue
        engine["periodic"] = periodic
        out["engine"] = engine
        out["fleet"] = dict(fleet, archivers=upgraded)
    return out
