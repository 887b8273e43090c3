"""Running one campaign in this process.

This module is the runner's only doorway into the experiment driver:
the old function-local ``from repro import Experiment`` inside
``analysis.seedsweep`` hid an import cycle (analysis is imported while
``repro.core`` is still initialising).  The runner package sits *above*
both core and analysis, so the import below is an ordinary module-level
one, and :func:`run_recorded` is a top-level -- hence picklable --
worker for :class:`concurrent.futures.ProcessPoolExecutor`.

With ``telemetry=True`` the campaign is built through
``CampaignBuilder.with_telemetry``: the engine traces every event
callback, the collector times every round, the whole worker run is
wrapped in a ``runner.run`` span, and a copy of the resulting
:class:`~repro.telemetry.hub.Telemetry` hub rides inside the returned
record.  The default stays telemetry-free and byte-identical
to the historical output.

Checkpointing rides in the same doorway: ``checkpoint_every`` /
``checkpoint_dir`` make the campaign flush crash-safe snapshots at a
simulated-seconds cadence, and ``resume_from`` restores a prior flush
and continues it instead of starting from scratch.  Because the engine
fires an identical event sequence whether or not the horizon is
segmented, a resumed run's record is byte-identical to an
uninterrupted one -- resume only changes how much work is redone.
"""

from __future__ import annotations

import datetime as _dt
import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from repro.core.builder import Campaign, CampaignBuilder
from repro.runner.faults import InjectedFault
from repro.core.config import ExperimentConfig
from repro.runner.records import RunRecord, record_from_results
from repro.state.checkpoint import CampaignCheckpoint, read_checkpoint
from repro.state.protocol import StateError
from repro.telemetry import Stopwatch, Telemetry


@dataclass(frozen=True)
class Resumed:
    """A sweep attempt's record, from an attempt that resumed from a cut.

    :func:`execute_attempt` returns one in place of the bare record so
    that the scheduler can count checkpoint resumes; the record inside
    is the one a from-scratch attempt returns.
    """

    record: RunRecord


def newest_checkpoint(checkpoint_dir: Optional[str]) -> Optional[CampaignCheckpoint]:
    """The newest *valid* checkpoint in a flush directory, read once.

    Candidates are tried newest-first (the cadence filenames sort by
    simulated time); :func:`read_checkpoint` quarantines anything
    corrupt, so a damaged newest flush degrades to the one before it,
    and a directory with no usable flush gives ``None``.
    """
    if checkpoint_dir is None or not os.path.isdir(checkpoint_dir):
        return None
    names = sorted(
        (
            name
            for name in os.listdir(checkpoint_dir)
            if name.startswith("checkpoint_") and name.endswith(".json")
        ),
        reverse=True,
    )
    for name in names:
        snapshot = read_checkpoint(os.path.join(checkpoint_dir, name))
        if snapshot is not None:
            return snapshot
    return None


def run_recorded(
    config: ExperimentConfig,
    until: Optional[_dt.datetime] = None,
    telemetry: bool = False,
    checkpoint_every: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    on_checkpoint: Optional[Callable] = None,
    resume_from: Optional[str] = None,
) -> RunRecord:
    """Run one campaign and distil it into a :class:`RunRecord`.

    With ``resume_from`` pointing at a checkpoint file, the campaign is
    restored and continued from its cut point; a missing, corrupt, or
    config-mismatched checkpoint falls back to a from-scratch run (the
    reader quarantines damaged files), so resume is an optimisation,
    never a new failure mode.
    """
    record, _ = _run_from(
        lambda: read_checkpoint(resume_from) if resume_from is not None else None,
        config, until, telemetry, checkpoint_every, checkpoint_dir, on_checkpoint
    )
    return record


def _restore(snapshot: Optional[CampaignCheckpoint]) -> Optional[Campaign]:
    """The campaign ``snapshot`` restores, or ``None`` when there is no
    snapshot or it does not restore.  The snapshot itself is dropped on
    return: it is as large as the campaign's histories, and the
    continued run must not hold it."""
    if snapshot is None:
        return None
    try:
        return Campaign.restore(snapshot)
    except StateError:
        return None


def _run_from(
    read: Callable[[], Optional[CampaignCheckpoint]],
    config: ExperimentConfig,
    until: Optional[_dt.datetime],
    telemetry: bool,
    checkpoint_every: Optional[float],
    checkpoint_dir: Optional[str],
    on_checkpoint: Optional[Callable],
) -> Tuple[RunRecord, bool]:
    """``(record, resumed)``: the campaign restored from the checkpoint
    ``read()`` gives, continued to the horizon; or a from-scratch run when
    it gives none, or the checkpoint does not restore or continue."""
    with Stopwatch() as watch:
        results = None
        restored = _restore(read())
        if restored is not None:
            try:
                results = restored.continue_run(
                    until=until,
                    checkpoint_every=checkpoint_every,
                    checkpoint_dir=checkpoint_dir,
                    on_checkpoint=on_checkpoint,
                )
                hub = restored.telemetry
                if hub is not None:
                    # Parity with the from-scratch path below: the
                    # worker-level span fires exactly once either way.
                    with hub.span("runner.run"):
                        pass
            except StateError:
                results = None
        resumed = results is not None
        if results is None:
            builder = CampaignBuilder(config)
            hub = None
            if telemetry:
                hub = Telemetry()
                builder.with_telemetry(hub)
            campaign = builder.build()
            with hub.span("runner.run") if hub is not None else nullcontext():
                results = campaign.run(
                    until=until,
                    checkpoint_every=checkpoint_every,
                    checkpoint_dir=checkpoint_dir,
                    on_checkpoint=on_checkpoint,
                )
    record = record_from_results(
        config.seed,
        results,
        until=until,
        elapsed_s=watch.elapsed_s,
    )
    return record, resumed


def execute_attempt(item) -> Union[RunRecord, Resumed]:
    """Sweep worker: honour the retry backoff, then run the spec.

    ``item`` is a :class:`repro.runner.pool.WorkItem`; it is duck-typed
    here (``spec``, ``attempt``, ``backoff_s``, and the optional
    checkpoint fields) to keep the layering one-way -- pool imports
    local, never the reverse.  The backoff sleep happens in the worker
    so the scheduler never blocks: a retried spec waits out its delay in
    its own slot while other completions keep flowing.  Top-level, hence
    picklable, and byte-deterministic: the record depends only on
    (config, seed, horizon), never on which attempt finally succeeded
    or where that attempt resumed from.  A retry resumes from the newest
    valid cut in ``checkpoint_dir`` and returns its record wrapped in
    :class:`Resumed`.

    ``die_after_checkpoints`` is the deferred-``DIE`` fault seam: the
    worker hard-exits right after the n-th checkpoint flush (raising
    :class:`~repro.runner.faults.InjectedFault` in a serial sweep, where
    a hard exit would kill the sweep itself).
    """
    if item.backoff_s > 0:
        time.sleep(item.backoff_s)
    spec = item.spec

    on_checkpoint: Optional[Callable] = None
    die_after = getattr(item, "die_after_checkpoints", 0)
    if die_after:
        flushed = [0]

        def on_checkpoint(path, checkpoint) -> None:
            flushed[0] += 1
            if flushed[0] >= die_after:
                if multiprocessing.parent_process() is None:
                    raise InjectedFault(
                        f"injected death after checkpoint {flushed[0]}"
                    )
                os._exit(13)

    checkpoint_dir = getattr(item, "checkpoint_dir", None)
    # The cut's chain is read here, once: to find it valid and to restore.
    record, resumed = _run_from(
        lambda: newest_checkpoint(checkpoint_dir) if item.attempt > 1 else None,
        spec.config,
        spec.until,
        spec.telemetry,
        getattr(item, "checkpoint_every_s", None),
        checkpoint_dir,
        on_checkpoint,
    )
    return Resumed(record) if resumed else record
