"""Fault-tolerant process-parallel campaigns with on-disk memoisation.

The seed sweep used to be a serial loop buried in the analysis layer.
This module turns it into a small execution service:

- :class:`RunSpec` -- one (config, horizon) unit of work, picklable;
- :func:`run_tasks` -- the *generic* execution plane: any picklable
  spec with a ``cache_key()``/``label``/``seed`` surface plus a
  top-level worker and a :class:`TaskCodec` for its cache entries gets
  the full fault-tolerance machinery (as-completed scheduling, retries,
  timeouts, pool-breakage repair, incremental caching, progress
  events).  The multi-site atlas sweep (:mod:`repro.atlas`) rides this
  plane with site-scoring tasks instead of campaigns;
- :func:`run_specs` -- execute many campaign specs, serially
  (``jobs=1``) or on a :class:`~concurrent.futures.ProcessPoolExecutor`,
  with an optional on-disk cache keyed by ``(config_digest, seed,
  until)``; a thin campaign-flavoured wrapper over :func:`run_tasks`;
- :func:`sweep_seeds` / :func:`sweep_records` -- the sweep API, now
  living here so neither core nor analysis imports the runner.

The paper's campaign survived dead PSUs and a mid-winter switch death
without stopping the measurement; the runner holds itself to the same
standard.  Scheduling is as-completed rather than a blocking ``map``:

- every finished record is written to the cache the moment it lands,
  so a later crash never discards completed work;
- a :class:`~repro.runner.policy.RetryPolicy` grants each spec a
  bounded number of attempts with deterministic seeded backoff and an
  optional per-attempt timeout (pooled mode only -- a serial run cannot
  be preempted);
- a worker that hard-exits breaks the pool; the runner rebuilds the
  executor and re-drives every in-flight spec as a counted attempt;
- with ``strict=False`` (the default) a spec that exhausts its attempts
  becomes a :class:`~repro.runner.records.FailedRun` in
  :attr:`SweepResult.failures` instead of poisoning the sweep;
  ``strict=True`` restores the historical fail-fast behaviour.

Determinism: each campaign is a pure function of (config, seed, until),
so retries, executors, and caches only change *where and how often* a
run happens, never what it returns -- serial, parallel, and
crash-retried sweeps produce byte-identical
:class:`~repro.runner.records.RunRecord` sequences, and a cache hit is
indistinguishable from a fresh run (minus the wall-clock field).  The
guarantee extends to telemetry-enabled sweeps: every record's metric
and span *counts* are deterministic (only per-span wall times differ),
so :meth:`SweepResult.merged_telemetry` is identical at any job count.

Cache lifecycle: entries are written atomically (tmp file + rename) on
run completion, store failures are non-fatal (the run already
succeeded, and the tmp file never outlives the attempt), and an entry
that fails JSON/schema/digest validation on load is quarantined to a
``.corrupt`` sibling and recomputed -- counted as a cache eviction in
the sweep's runner telemetry rather than re-parsed forever.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.seedsweep import SweepSummary
from repro.core.config import ExperimentConfig
from repro.runner.faults import FaultPlan
from repro.runner.local import Resumed, execute_attempt
from repro.runner.policy import RetryPolicy, SpecTimeoutError
from repro.runner.records import (
    RECORD_SCHEMA,
    FailedRun,
    RunRecord,
    config_digest,
    record_from_json_dict,
)
from repro.sim.clock import DAY
from repro.telemetry import (
    Stopwatch,
    Telemetry,
    TelemetrySnapshot,
    merge_snapshots,
)

#: Default simulated-seconds checkpoint cadence for resumable sweeps.
DEFAULT_CHECKPOINT_EVERY_S = 14 * DAY


def _horizon_token(until: Optional[_dt.datetime]) -> str:
    """Filename-safe horizon component of the cache key.

    Naive horizons keep the historical layout.  Aware horizons are
    normalised to UTC and marked with a ``Z``, so two horizons naming
    the same instant through different offsets share one entry, while
    equal wall times in different zones -- which used to collide -- do
    not.
    """
    if until is None:
        return "full"
    if until.tzinfo is not None:
        return until.astimezone(_dt.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return until.strftime("%Y%m%dT%H%M%S")


@dataclass(frozen=True)
class RunSpec:
    """One unit of sweep work: a campaign config plus its horizon.

    ``telemetry`` opts the run into metrics/span collection; it is part
    of the cache key, so a telemetry-free cache entry is never served to
    a telemetry-bearing request (or vice versa).
    """

    config: ExperimentConfig
    until: Optional[_dt.datetime] = None
    label: str = ""
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.until is not None:
            aware_until = self.until.tzinfo is not None
            aware_config = self.config.end_date.tzinfo is not None
            if aware_until != aware_config:
                raise ValueError(
                    "mixed naive/aware datetimes: until is "
                    f"{'aware' if aware_until else 'naive'} but the config's "
                    f"campaign dates are {'aware' if aware_config else 'naive'}; "
                    "make both naive or both tz-aware"
                )

    @property
    def seed(self) -> int:
        """The spec's master seed."""
        return self.config.seed

    def cache_key(self) -> str:
        """Filename-safe memoisation key: config digest, seed, horizon."""
        digest = config_digest(self.config)
        suffix = "-telemetry" if self.telemetry else ""
        return f"{digest[:16]}-{self.config.seed}-{_horizon_token(self.until)}{suffix}"


@dataclass(frozen=True)
class WorkItem:
    """One scheduled attempt at a spec (picklable pool payload).

    ``spec`` is typed loosely: campaign sweeps carry a
    :class:`RunSpec`, but any :func:`run_tasks` family's spec (e.g. an
    atlas site task) rides in the same slot -- the scheduler only
    touches the ``cache_key()``/``label``/``seed`` surface.

    The checkpoint fields are populated only by resumable sweeps:
    ``checkpoint_dir``/``checkpoint_every_s`` make the attempt flush
    snapshots as it runs (and a retry resume from the newest valid one
    already there), and ``die_after_checkpoints`` is the deferred fault
    seam (see :class:`~repro.runner.faults.Fault`).
    """

    index: int
    spec: Any
    attempt: int = 1
    backoff_s: float = 0.0
    checkpoint_dir: Optional[str] = None
    checkpoint_every_s: Optional[float] = None
    die_after_checkpoints: int = 0


@dataclass(frozen=True)
class SweepResult:
    """Everything a sweep execution reports.

    ``failures`` is empty unless the sweep ran with ``strict=False``
    and some spec exhausted its attempts; ``retries``/``timeouts``
    count attempt-level events (a timed-out attempt that later succeeds
    on retry shows up in both); ``checkpoint_resumes`` counts the
    attempts that resumed from a checkpoint cut and returned a record
    (a worker reports it with :class:`~repro.runner.local.Resumed`).
    ``runner_telemetry`` carries the same
    tallies through the telemetry plane as ``runner.*`` counters.

    ``records`` holds :class:`RunRecord` instances for campaign sweeps;
    a generic :func:`run_tasks` family returns whatever its worker
    produces (the census-flavoured :attr:`summary` and
    :meth:`merged_telemetry` views only make sense for campaigns).
    """

    records: Tuple[Any, ...]
    cache_hits: int
    cache_misses: int
    elapsed_s: float
    failures: Tuple[FailedRun, ...] = ()
    retries: int = 0
    timeouts: int = 0
    cache_evictions: int = 0
    checkpoint_resumes: int = 0
    runner_telemetry: Optional[TelemetrySnapshot] = None

    @property
    def ok(self) -> bool:
        """Whether every spec produced a record."""
        return not self.failures

    @property
    def summary(self) -> SweepSummary:
        """The census aggregate the serial sweep always produced."""
        if not self.records:
            raise ValueError(
                "no records survived the sweep; see SweepResult.failures"
            )
        return SweepSummary(
            outcomes=tuple(record.to_outcome() for record in self.records)
        )

    def merged_telemetry(self) -> Optional[TelemetrySnapshot]:
        """Fleet-wide telemetry, folded across every worker's record.

        Counters, histogram buckets, span fire counts, and span wall
        time add; gauges keep the maximum.  Because each record's counts
        are a pure function of its (config, seed, horizon), the merge is
        identical whether the sweep ran serially or on N workers.
        Returns ``None`` when no record carries telemetry.
        """
        return merge_snapshots(
            record.telemetry
            for record in self.records
            if record.telemetry is not None
        )


# ----------------------------------------------------------------------
# Cache plumbing
# ----------------------------------------------------------------------
def _always_valid(_spec: Any, _record: Any) -> bool:
    return True


@dataclass(frozen=True)
class TaskCodec:
    """How a task family's records cross the on-disk cache boundary.

    ``encode`` turns a finished record into a JSON-serialisable dict;
    ``decode`` rebuilds it (raising ``KeyError``/``TypeError``/
    ``ValueError`` on malformed data, which quarantines the entry);
    ``validate`` gets ``(spec, record)`` after a successful decode and
    vetoes entries that parse but belong to someone else (schema drift,
    seed or digest mismatch) -- a veto also quarantines.
    """

    encode: Callable[[Any], Dict[str, Any]]
    decode: Callable[[Dict[str, Any]], Any]
    validate: Callable[[Any, Any], bool] = _always_valid


def _validate_run_record(spec: "RunSpec", record: RunRecord) -> bool:
    return (
        record.schema == RECORD_SCHEMA
        and record.seed == spec.seed
        and record.config_digest == config_digest(spec.config)
    )


#: Cache codec for campaign :class:`RunRecord` entries -- the historical
#: on-disk layout, byte for byte.
RUN_RECORD_CODEC = TaskCodec(
    encode=lambda record: record.to_json_dict(),
    decode=record_from_json_dict,
    validate=_validate_run_record,
)


def _cache_path(cache_dir: str, spec: Any) -> str:
    return os.path.join(cache_dir, f"{spec.cache_key()}.json")


def _quarantine(path: str) -> None:
    """Move a poisoned entry aside so it is never re-parsed."""
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass


def _load_cached(
    cache_dir: str, spec: Any, codec: TaskCodec
) -> Tuple[Optional[Any], bool]:
    """``(record, evicted)`` for this spec's cache entry.

    An entry that exists but fails JSON decoding or the codec's
    validation is quarantined (renamed to ``.corrupt``) and reported as
    evicted; a merely unreadable file (I/O error) is left in place.
    """
    path = _cache_path(cache_dir, spec)
    if not os.path.exists(path):
        return None, False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        record = codec.decode(data)
    except OSError:
        return None, False
    except (KeyError, TypeError, ValueError):
        _quarantine(path)
        return None, True
    if not codec.validate(spec, record):
        _quarantine(path)
        return None, True
    return record, False


def _store_cached(
    cache_dir: str, spec: Any, record: Any, codec: TaskCodec
) -> bool:
    """Best-effort atomic store; returns whether the entry was written.

    A store failure is non-fatal -- the run already succeeded, so a
    full disk or an unserialisable record must not abort the sweep --
    and the tmp file never outlives the call, whatever goes wrong
    between ``mkstemp`` and the final rename.
    """
    path = _cache_path(cache_dir, spec)
    tmp_path: Optional[str] = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(codec.encode(record), fh, sort_keys=True)
        os.replace(tmp_path, path)
        tmp_path = None
        return True
    except (OSError, TypeError, ValueError):
        return False
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
class _SweepState:
    """Mutable bookkeeping shared by the serial and pooled drivers."""

    def __init__(
        self,
        policy: RetryPolicy,
        strict: bool,
        cache_dir: Optional[str],
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
        codec: TaskCodec = RUN_RECORD_CODEC,
    ) -> None:
        self.policy = policy
        self.strict = strict
        self.cache_dir = cache_dir
        self.progress = progress
        self.codec = codec
        self.records: Dict[int, Any] = {}
        self.failures: List[FailedRun] = []
        self.retries = 0
        self.timeouts = 0
        self.store_failures = 0
        self.checkpoint_resumes = 0

    def notify(self, kind: str, spec: Any, **extra: object) -> None:
        """Best-effort progress event; a broken sink never kills a sweep."""
        if self.progress is None:
            return
        event: Dict[str, object] = {
            "kind": kind,
            "label": spec.label or f"seed {spec.seed}",
        }
        event.update(extra)
        try:
            self.progress(event)
        except Exception:
            pass

    def success(self, item: WorkItem, record: Any) -> None:
        """Record a finished attempt; cache it immediately."""
        if isinstance(record, Resumed):
            self.checkpoint_resumes += 1
            record = record.record
        self.records[item.index] = record
        if self.cache_dir is not None:
            if not _store_cached(self.cache_dir, item.spec, record, self.codec):
                self.store_failures += 1
        if item.checkpoint_dir is not None:
            # The record is cached; the spec's mid-flight snapshots are
            # spent fuel.
            shutil.rmtree(item.checkpoint_dir, ignore_errors=True)
        self.notify("completed", item.spec, attempt=item.attempt)

    def failure(
        self, item: WorkItem, exc: BaseException, timed_out: bool = False
    ) -> Optional[WorkItem]:
        """Handle a failed attempt: the retry item, or ``None`` if spent.

        In strict mode an exhausted spec re-raises the original error
        (the historical fail-fast behaviour); otherwise it becomes a
        :class:`FailedRun` and the sweep keeps going.
        """
        if timed_out:
            self.timeouts += 1
        if item.attempt < self.policy.max_attempts:
            self.retries += 1
            self.notify(
                "retried", item.spec, attempt=item.attempt, error=str(exc)
            )
            return WorkItem(
                index=item.index,
                spec=item.spec,
                attempt=item.attempt + 1,
                backoff_s=self.policy.backoff_s(item.attempt, item.spec.seed),
                checkpoint_dir=item.checkpoint_dir,
                checkpoint_every_s=item.checkpoint_every_s,
            )
        if self.strict:
            raise exc
        self.failures.append(
            FailedRun(
                spec=item.spec,
                attempts=item.attempt,
                error_type=type(exc).__name__,
                error_message=str(exc),
                timed_out=timed_out,
            )
        )
        self.notify("failed", item.spec, attempt=item.attempt, error=str(exc))
        return None


def _retry_or_fail(
    state: _SweepState,
    ready: Deque[WorkItem],
    item: WorkItem,
    exc: BaseException,
    timed_out: bool = False,
) -> None:
    retry = state.failure(item, exc, timed_out=timed_out)
    if retry is not None:
        ready.append(retry)


def _run_serial(
    items: Sequence[WorkItem], worker: Callable, state: _SweepState
) -> None:
    """In-process driver: retries inline, spec order preserved."""
    queue: Deque[WorkItem] = deque(items)
    while queue:
        item = queue.popleft()
        try:
            record = worker(item)
        except Exception as exc:
            retry = state.failure(item, exc)
            if retry is not None:
                # Re-drive the same spec before moving on, mirroring the
                # per-spec ordering of the historical serial loop.
                queue.appendleft(retry)
        else:
            state.success(item, record)


def _nearest_deadline_s(
    in_flight: Dict[Future, Tuple[WorkItem, Optional[float]]],
) -> Optional[float]:
    deadlines = [d for _, d in in_flight.values() if d is not None]
    if not deadlines:
        return None
    return max(0.0, min(deadlines) - time.monotonic())


def _run_pooled(
    items: Sequence[WorkItem],
    worker: Callable,
    state: _SweepState,
    workers: int,
) -> None:
    """As-completed pool driver: timeouts, retries, pool-breakage repair.

    ``ready`` holds attempts waiting for a slot; ``in_flight`` maps each
    live future to its work item and (optional) wall-clock deadline.  An
    attempt past its deadline is abandoned -- the future cannot be
    preempted, so it keeps its slot (tracked in ``abandoned``) until the
    worker drains, and any late result is discarded.
    """
    ready: Deque[WorkItem] = deque(items)
    in_flight: Dict[Future, Tuple[WorkItem, Optional[float]]] = {}
    abandoned: Set[Future] = set()
    timeout_s = state.policy.timeout_s
    executor = ProcessPoolExecutor(max_workers=workers)
    try:
        while ready or in_flight:
            abandoned = {f for f in abandoned if not f.done()}
            while ready and len(in_flight) + len(abandoned) < workers:
                item = ready.popleft()
                future = executor.submit(worker, item)
                deadline = None
                if timeout_s is not None:
                    # The budget starts at submission; the worker-side
                    # backoff sleep is part of the schedule, not the run.
                    deadline = time.monotonic() + item.backoff_s + timeout_s
                in_flight[future] = (item, deadline)
            if not in_flight:
                # Every slot is wedged on an abandoned attempt; wait for
                # one to drain before scheduling more work.
                wait(set(abandoned), timeout=0.05)
                continue

            done, _ = wait(
                set(in_flight),
                timeout=_nearest_deadline_s(in_flight),
                return_when=FIRST_COMPLETED,
            )
            broken: Optional[BrokenProcessPool] = None
            for future in done:
                item, _deadline = in_flight.pop(future)
                try:
                    record = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    _retry_or_fail(state, ready, item, exc)
                except Exception as exc:
                    _retry_or_fail(state, ready, item, exc)
                else:
                    state.success(item, record)
            if broken is not None:
                # A worker hard-exited: the pool and every in-flight
                # future died with it.  Count an attempt for each victim
                # and rebuild the executor.
                for item, _deadline in in_flight.values():
                    _retry_or_fail(state, ready, item, broken)
                in_flight.clear()
                abandoned.clear()
                executor.shutdown(wait=False, cancel_futures=True)
                executor = ProcessPoolExecutor(max_workers=workers)
                continue

            now = time.monotonic()
            for future, (item, deadline) in list(in_flight.items()):
                if deadline is None or now < deadline or future.done():
                    continue
                del in_flight[future]
                if not future.cancel():
                    abandoned.add(future)
                _retry_or_fail(
                    state,
                    ready,
                    item,
                    SpecTimeoutError(
                        f"{item.spec.label or f'seed {item.spec.seed}'} "
                        f"attempt {item.attempt} exceeded "
                        f"{timeout_s:.3g} s"
                    ),
                    timed_out=True,
                )
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_tasks(
    specs: Sequence[Any],
    worker: Callable[[WorkItem], Any],
    codec: TaskCodec = RUN_RECORD_CODEC,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    strict: bool = False,
    resumable: bool = False,
    checkpoint_every_s: Optional[float] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> SweepResult:
    """Execute every task spec and return surviving records in spec order.

    The generic execution plane behind :func:`run_specs`: any task
    family gets the fault-tolerant scheduling machinery by providing

    - picklable ``specs``, each exposing ``cache_key() -> str`` (the
      memoisation key), ``label`` (progress/report naming), and ``seed``
      (retry-backoff jitter and :class:`FailedRun` reporting);
    - a top-level (hence picklable) ``worker`` taking one
      :class:`WorkItem` and returning that family's record; it must
      honour ``item.backoff_s`` (sleep before working) and may use the
      checkpoint fields or ignore them;
    - a :class:`TaskCodec` describing how records round-trip through the
      on-disk cache (only consulted when ``cache_dir`` is set).

    ``jobs=1`` runs serially in this process; ``jobs>1`` fans out over a
    process pool.  With ``cache_dir`` set, previously-computed records
    are loaded instead of re-run, and every fresh record is stored the
    moment it completes, so a later fault never discards finished work.

    ``policy`` grants each spec retries, backoff, and (pooled only) a
    per-attempt timeout; without one, each spec gets a single attempt.
    With ``strict=False`` a spec that exhausts its attempts lands in
    :attr:`SweepResult.failures` while its siblings finish;
    ``strict=True`` re-raises the spec's final error immediately.

    ``resumable=True`` threads per-spec checkpoint directories
    (``cache_dir/checkpoints/<cache_key>/``, cadence
    ``checkpoint_every_s``, default
    :data:`DEFAULT_CHECKPOINT_EVERY_S`) into each :class:`WorkItem`;
    workers that flush checkpoints (campaigns) then resume retried
    attempts from the last valid flush, and workers that don't (atlas
    site scoring is seconds of work) simply ignore the fields -- their
    resumability comes from the incremental record cache itself.

    ``progress`` is an optional per-spec event sink (e.g.
    :meth:`repro.telemetry.progress.SweepProgress.sink`) called with one
    dict per lifecycle event -- ``kind`` is ``"cached"``,
    ``"completed"``, ``"retried"``, or ``"failed"``, ``label`` names the
    spec, and retries/failures carry ``attempt`` and ``error``.  Sink
    exceptions are swallowed: progress never changes sweep results.
    """
    if not specs:
        raise ValueError("need at least one run spec")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if resumable and cache_dir is None:
        raise ValueError("resumable sweeps need a cache_dir for checkpoints")
    if checkpoint_every_s is not None and checkpoint_every_s <= 0:
        raise ValueError("checkpoint_every_s must be positive")
    every = (
        checkpoint_every_s
        if checkpoint_every_s is not None
        else DEFAULT_CHECKPOINT_EVERY_S
    )
    policy = policy if policy is not None else RetryPolicy()
    with Stopwatch() as watch:
        hits = 0
        evictions = 0
        state = _SweepState(
            policy=policy,
            strict=strict,
            cache_dir=cache_dir,
            progress=progress,
            codec=codec,
        )
        if cache_dir is not None:
            for index, spec in enumerate(specs):
                cached, evicted = _load_cached(cache_dir, spec, codec)
                evictions += int(evicted)
                if cached is not None:
                    state.records[index] = cached
                    hits += 1
                    state.notify("cached", spec)

        missing = [
            WorkItem(
                index=index,
                spec=spec,
                checkpoint_dir=(
                    os.path.join(cache_dir, "checkpoints", spec.cache_key())
                    if resumable
                    else None
                ),
                checkpoint_every_s=every if resumable else None,
            )
            for index, spec in enumerate(specs)
            if index not in state.records
        ]
        if missing:
            pooled = jobs > 1 and (
                len(missing) > 1 or policy.timeout_s is not None
            )
            if pooled:
                # With timeouts on, abandoned attempts keep their slots
                # until the wedged worker drains, so retries may need
                # more slots than there are specs.
                workers = (
                    jobs
                    if policy.timeout_s is not None
                    else min(jobs, len(missing))
                )
                _run_pooled(missing, worker, state, workers=workers)
            else:
                _run_serial(missing, worker, state)

        ordered = tuple(state.records[index] for index in sorted(state.records))

    hub = Telemetry()
    hub.counter("runner.cache_hits").inc(hits)
    hub.counter("runner.cache_misses").inc(len(missing))
    hub.counter("runner.cache_evictions").inc(evictions)
    hub.counter("runner.cache_store_failures").inc(state.store_failures)
    hub.counter("runner.retries").inc(state.retries)
    hub.counter("runner.timeouts").inc(state.timeouts)
    hub.counter("runner.failures").inc(len(state.failures))
    hub.counter("runner.checkpoint_resumes").inc(state.checkpoint_resumes)
    return SweepResult(
        records=ordered,
        cache_hits=hits,
        cache_misses=len(missing),
        elapsed_s=watch.elapsed_s,
        failures=tuple(state.failures),
        retries=state.retries,
        timeouts=state.timeouts,
        cache_evictions=evictions,
        checkpoint_resumes=state.checkpoint_resumes,
        runner_telemetry=hub.snapshot(),
    )


def run_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    strict: bool = False,
    faults: Optional[FaultPlan] = None,
    resumable: bool = False,
    checkpoint_every_s: Optional[float] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> SweepResult:
    """Execute every campaign spec; records come back in spec order.

    The campaign-flavoured entry point: :func:`run_tasks` with
    :func:`~repro.runner.local.execute_attempt` as the worker and
    :data:`RUN_RECORD_CODEC` for the cache, so the on-disk layout, the
    byte-identity guarantees, and every fault-tolerance knob are exactly
    as documented there.  ``faults`` is the deterministic test seam
    (:class:`~repro.runner.faults.FaultPlan`) that injects crashes,
    delays, and worker deaths on schedule; it wraps the campaign worker
    and is the one knob :func:`run_tasks` does not take directly.

    ``resumable=True`` additionally buys campaigns mid-run resume: every
    attempt flushes checkpoints at the ``checkpoint_every_s`` simulated-
    seconds cadence (default :data:`DEFAULT_CHECKPOINT_EVERY_S`), and a
    retried attempt resumes from the dead attempt's last valid flush
    instead of simulated ``t=0``.  Resume changes how much work a retry
    redoes, never what it returns: the records stay byte-identical.
    """
    worker = execute_attempt if faults is None else faults.wrap(execute_attempt)
    return run_tasks(
        specs,
        worker,
        codec=RUN_RECORD_CODEC,
        jobs=jobs,
        cache_dir=cache_dir,
        policy=policy,
        strict=strict,
        resumable=resumable,
        checkpoint_every_s=checkpoint_every_s,
        progress=progress,
    )


def _specs_for_seeds(
    seeds: Sequence[int],
    until: Optional[_dt.datetime],
    config_factory: Optional[Callable[[int], ExperimentConfig]],
    telemetry: bool = False,
) -> List[RunSpec]:
    if not seeds:
        raise ValueError("need at least one seed")
    factory = config_factory if config_factory is not None else (
        lambda seed: ExperimentConfig(seed=seed)
    )
    return [
        RunSpec(
            config=factory(seed),
            until=until,
            label=f"seed {seed}",
            telemetry=telemetry,
        )
        for seed in seeds
    ]


def sweep_records(
    seeds: Sequence[int],
    until: Optional[_dt.datetime] = None,
    config_factory: Optional[Callable[[int], ExperimentConfig]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    telemetry: bool = False,
    policy: Optional[RetryPolicy] = None,
    strict: bool = False,
    faults: Optional[FaultPlan] = None,
    resumable: bool = False,
    checkpoint_every_s: Optional[float] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> SweepResult:
    """Run the campaign once per seed; full execution report.

    ``telemetry=True`` collects metrics and spans in every worker;
    :meth:`SweepResult.merged_telemetry` folds them into one view.
    ``policy``/``strict``/``faults``/``resumable``/``progress`` are
    passed through to :func:`run_specs` (see there for the
    fault-tolerance, checkpoint-resume, and progress-sink semantics).
    """
    return run_specs(
        _specs_for_seeds(seeds, until, config_factory, telemetry=telemetry),
        jobs=jobs,
        cache_dir=cache_dir,
        policy=policy,
        strict=strict,
        faults=faults,
        resumable=resumable,
        checkpoint_every_s=checkpoint_every_s,
        progress=progress,
    )


def sweep_seeds(
    seeds: Sequence[int],
    until: Optional[_dt.datetime] = None,
    config_factory: Optional[Callable[[int], ExperimentConfig]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> SweepSummary:
    """Run the campaign once per seed and aggregate the censuses.

    The drop-in successor of the serial loop that used to live in
    :mod:`repro.analysis.seedsweep`; ``jobs`` and ``cache_dir`` are the
    new knobs, and the default arguments reproduce the old behaviour
    exactly -- including fail-fast on a crashed run (a summary-only API
    has nowhere to report partial results; use :func:`sweep_records`
    with ``strict=False`` for graceful degradation).
    """
    return sweep_records(
        seeds,
        until=until,
        config_factory=config_factory,
        jobs=jobs,
        cache_dir=cache_dir,
        strict=True,
    ).summary
