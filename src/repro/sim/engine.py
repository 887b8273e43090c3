"""The discrete-event engine.

A :class:`Simulator` owns a priority queue of timestamped callbacks and a
:class:`~repro.sim.clock.SimClock`.  Components schedule one-shot or periodic
events; the experiment driver calls :meth:`Simulator.run_until`.

Determinism rules:

- ties in time break by scheduling order (a monotone sequence number), so a
  run is a pure function of (config, master seed);
- callbacks may schedule further events, including at the current instant,
  but never in the past.

Snapshotting
------------
The queue used to hold raw closures, which made a mid-flight simulator
unserialisable.  Work scheduled through the *registry* instead carries a
stable ``(key, args)`` spec: :meth:`register` binds a key to a callable
once per process, :meth:`schedule_key` / :meth:`every_key` enqueue specs,
and the callable is resolved at fire time.  :meth:`state_dict` then
externalises the whole engine -- clock position, counters, sequence
numbers, the heap (cancelled tombstones included, so the
``events_cancelled`` tally stays byte-identical across a resume), and
the periodic-task table -- and :meth:`load_state_dict` rebuilds it into
a fresh simulator whose registry has been populated the same way.
Closure-scheduled events still work for ad-hoc use; they simply make
``state_dict`` raise.

Quiet steps
-----------
Work that only its owner can observe -- an archiver's cycle phases, a
logger's samples -- does not need to be an event.  :meth:`schedule_quiet`
queues ``fn()`` on a second, lighter heap: no handle, no label, no
tracing, no ``events_fired`` count, and no place in :meth:`state_dict`
(the owner stores the step's position and re-queues it on restore).  A
quiet step runs exactly where an event scheduled at the same moment
would have fired: it carries the engine's ``seq`` counter from when it
was queued, and runs before an event at ``(time, seq)`` iff its own
``(time, seq)`` is not later -- events queued after it share or exceed
that counter.  Every quiet step ordered before an event runs as the
event fires, just before its callback and inside its trace span, and
:meth:`run_until` runs those up to its end, so any reader, inside an
event or between runs, sees them settled.

Heap entries are ``(time, seq, handle)`` tuples, so :mod:`heapq` orders
them with C tuple comparison; ``seq`` is unique, so the handle itself is
never compared.  Cancellation is lazy (tombstones drain when they
surface), but when more than half the queue is tombstones the heap is
compacted in one pass (counted in :attr:`heap_compactions`), so long
campaigns with periodic reschedules don't grow the queue unboundedly.
"""

from __future__ import annotations

import numbers
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.clock import SimClock

#: Registry key the engine itself uses to re-fire periodic tasks.
_PERIODIC_KEY = "engine.periodic"

#: Compact the heap only past this size (tiny queues aren't worth it).
_COMPACT_MIN_QUEUE = 8

#: Engine state-dict layout version.
_STATE_VERSION = 1

#: A ``seq`` no event reaches: quiet steps at the horizon run first.
_AFTER_ALL = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling into the past)."""


class EventHandle:
    """Cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays queued and is discarded when
    it surfaces (or swept by a compaction pass).  ``handle.cancelled`` is
    readable at any time.  ``key``/``args`` hold the registry spec for
    snapshot-safe events; closure events have ``key is None``.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "key", "args", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Optional[Callable[[], None]],
        label: str,
        key: Optional[str] = None,
        args: Tuple = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.label = label
        self.key = key
        self.args = args
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        self.callback = None
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else f"at {self.time:.1f}s"
        return f"EventHandle({self.label!r}, {state})"


class PeriodicTask:
    """Cancellable reference to an engine-managed recurrence.

    Unlike :class:`EventHandle` this survives snapshot/restore: the task
    table serialises with the engine, and
    :meth:`Simulator.periodic_task` rebuilds a handle from its id.
    """

    __slots__ = ("_sim", "task_id")

    def __init__(self, sim: "Simulator", task_id: int) -> None:
        self._sim = sim
        self.task_id = task_id

    @property
    def cancelled(self) -> bool:
        return self._sim._periodic[self.task_id]["cancelled"]

    def cancel(self) -> None:
        """Stop the recurrence.  Idempotent.

        Matches the closure-based :meth:`Simulator.every` semantics: the
        already-queued next occurrence still surfaces (and counts as
        fired), sees the flag, and does nothing.
        """
        self._sim._periodic[self.task_id]["cancelled"] = True

    def __repr__(self) -> str:
        task = self._sim._periodic[self.task_id]
        state = "cancelled" if task["cancelled"] else f"every {task['period']:.0f}s"
        return f"PeriodicTask({task['label']!r}, {state})"


class Simulator:
    """Event loop with calendar-aware time.

    Parameters
    ----------
    clock:
        Calendar mapping; defaults to a clock at the paper's epoch.

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(10.0, lambda: seen.append(sim.now))
    >>> sim.run_until(60.0)
    >>> seen
    [10.0]
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._events_fired = 0
        self._events_cancelled = 0
        self._cancelled_pending = 0
        self._heap_compactions = 0
        self._running = False
        self._registry: Dict[str, Callable[..., None]] = {
            _PERIODIC_KEY: self._fire_periodic
        }
        self._periodic: Dict[int, Dict[str, Any]] = {}
        self._periodic_next = 0
        #: Quiet steps, ``[time, seq, tie, fn]`` (see :meth:`schedule_quiet`).
        self._quiet: List[list] = []
        self._quiet_ties = 0
        #: Optional trace hook ``(time, label)`` called before each event
        #: fires; labels come from the ``label=`` scheduling argument.
        #: Used by tests and by anyone debugging event ordering.
        self.on_event: Optional[Callable[[float, str], None]] = None
        #: Optional :class:`~repro.telemetry.spans.SpanTracer`.  When set
        #: (a telemetry-enabled campaign does it), every fired callback,
        #: with the quiet steps settled before it, is wrapped in a span
        #: keyed by ``"engine.<label>"``.  When ``None``
        #: (the default) the fast path pays one attribute check per event.
        self.tracer: Optional[Any] = None

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.1f}s [{self.clock.format(self.now)}], "
            f"pending={self.pending_count})"
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of queued, non-cancelled events."""
        return len(self._queue) - self._cancelled_pending

    @property
    def events_fired(self) -> int:
        """Total callbacks executed so far (cancelled events never count)."""
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        """Cancelled handles drained from the queue without firing."""
        return self._events_cancelled

    @property
    def heap_compactions(self) -> int:
        """Times the queue was swept of cancelled tombstones in one pass."""
        return self._heap_compactions

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds."""
        return self.schedule_at(self.now + delay, callback, label)

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule {label or callback!r} at {time:.1f}s, "
                f"which is before now ({self.now:.1f}s)"
            )
        return self._push(EventHandle(time, self._next_seq(), callback, label))

    def schedule_datetime(
        self, when: Any, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Run ``callback`` at the calendar instant ``when`` (a datetime)."""
        return self.schedule_at(self.clock.to_seconds(when), callback, label)

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        start: Optional[float] = None,
        label: str = "",
    ) -> EventHandle:
        """Run ``callback`` periodically, first at ``start`` (default: now + period).

        Returns the handle of the *first* occurrence; cancelling it stops
        the whole recurrence (each firing re-checks the shared handle).
        Closure-based and therefore not snapshot-safe; long-lived
        campaign recurrences use :meth:`every_key`.
        """
        first = self.now + period if start is None else start
        control = EventHandle(first, -1, lambda: None, label or "periodic")

        def fire() -> None:
            if control.cancelled:
                return
            callback()
            if not control.cancelled:
                self.schedule(period, fire, label)

        self.schedule_at(first, fire, label)
        return control

    def schedule_quiet(
        self,
        time: float,
        fn: Callable[[], None],
        position: Optional[Sequence[int]] = None,
    ) -> list:
        """Run ``fn()`` at ``time`` in event order, without an event.

        Returns the step's entry ``[time, seq, tie, fn]``.  Its first
        three fields are its position: an owner that checkpoints keeps
        them and passes ``position=(seq, tie)`` to queue the step again
        after a restore.  Setting ``entry[3] = None`` cancels the step.
        While it runs, :attr:`now` is ``time``.  A quiet step may queue
        events and quiet steps, but not an event ahead of the event it
        is settled for, and it may not cancel that event.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot queue a quiet step at {time:.1f}s, "
                f"which is before now ({self.now:.1f}s)"
            )
        if position is None:
            tie = self._quiet_ties
            entry = [time, self._seq, tie, fn]
        else:
            tie = int(position[1])
            entry = [time, int(position[0]), tie, fn]
        if tie >= self._quiet_ties:
            self._quiet_ties = tie + 1
        heappush(self._quiet, entry)
        return entry

    # ------------------------------------------------------------------
    # Registry (snapshot-safe scheduling)
    # ------------------------------------------------------------------
    def register(self, key: str, fn: Callable[..., None]) -> None:
        """Bind ``key`` to ``fn`` for spec-based scheduling.

        Keys are stable names (``"fleet.tick"``, ``"policy.inspect"``);
        the binding is per-process and re-registration overwrites, which
        is what restore-by-reconstruction needs.
        """
        if key == _PERIODIC_KEY and fn is not self._fire_periodic:
            raise SimulationError(f"{_PERIODIC_KEY!r} is reserved by the engine")
        self._registry[key] = fn

    def registered(self, key: str) -> bool:
        """Whether ``key`` is bound."""
        return key in self._registry

    def schedule_key(
        self, delay: float, key: str, args: Tuple = (), label: str = ""
    ) -> EventHandle:
        """Registry-dispatched :meth:`schedule`."""
        return self.schedule_at_key(self.now + delay, key, args, label)

    def schedule_at_key(
        self, time: float, key: str, args: Tuple = (), label: str = ""
    ) -> EventHandle:
        """Registry-dispatched :meth:`schedule_at`: snapshot-safe."""
        if key not in self._registry:
            raise SimulationError(f"no callback registered under {key!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule {label or key!r} at {time:.1f}s, "
                f"which is before now ({self.now:.1f}s)"
            )
        seq = self._seq
        self._seq = seq + 1
        if type(args) is not tuple:
            args = tuple(args)
        handle = EventHandle(time, seq, None, label, key, args)
        handle._sim = self
        heappush(self._queue, (time, seq, handle))
        return handle

    def every_key(
        self,
        period: float,
        key: str,
        args: Tuple = (),
        start: Optional[float] = None,
        label: str = "",
    ) -> PeriodicTask:
        """Snapshot-safe :meth:`every`: the recurrence lives in the task table.

        Sequence-number consumption matches :meth:`every` exactly (one
        per occurrence), so converting a recurrence from closures to
        keys does not perturb tie-breaking anywhere else in the run.
        """
        if period <= 0:
            raise SimulationError("periodic events need a positive period")
        if key not in self._registry:
            raise SimulationError(f"no callback registered under {key!r}")
        first = self.now + period if start is None else start
        task_id = self._periodic_next
        self._periodic_next += 1
        self._periodic[task_id] = {
            "period": float(period),
            "key": key,
            "args": tuple(args),
            "label": label,
            "cancelled": False,
        }
        self.schedule_at_key(first, _PERIODIC_KEY, (task_id,), label=label)
        return PeriodicTask(self, task_id)

    def every_key_group(
        self,
        period: float,
        key: str,
        callbacks: Sequence[Callable[[], None]],
        start: Optional[float] = None,
        label: str = "",
    ) -> PeriodicTask:
        """A batched recurrence: ONE heap entry firing several callbacks.

        Identical-cadence periodic work (clock, thermal, workload,
        telemetry passes) scheduled as separate ``every_key`` recurrences
        costs one heap push/pop and one dispatch per subsystem per tick.
        A group amortises that to a single entry: each occurrence calls
        every callback once, in the fixed order given -- the RackMind-style
        per-tick system pass -- before the recurrence re-arms.

        ``key`` is registered to the group dispatcher, so the recurrence
        is snapshot-safe as long as the restored process re-registers the
        same group under the same key before ``load_state_dict``.
        """
        fns = tuple(callbacks)
        if not fns:
            raise SimulationError("a periodic group needs at least one callback")

        def _fire_group() -> None:
            for fn in fns:
                fn()

        self.register(key, _fire_group)
        return self.every_key(period, key, start=start, label=label or key)

    def periodic_task(self, task_id: int) -> PeriodicTask:
        """Rebuild the handle for an existing recurrence (restore path)."""
        if task_id not in self._periodic:
            raise SimulationError(f"no periodic task {task_id}")
        return PeriodicTask(self, task_id)

    def find_key_handles(
        self, key: str, args: Optional[Tuple] = None
    ) -> List[EventHandle]:
        """Live queued handles for ``key`` (restore-time re-linking)."""
        return [
            h
            for _, _, h in self._queue
            if h.key == key
            and not h.cancelled
            and (args is None or h.args == tuple(args))
        ]

    def _fire_periodic(self, task_id: int) -> None:
        task = self._periodic[task_id]
        if task["cancelled"]:
            return
        self._registry[task["key"]](*task["args"])
        if not task["cancelled"]:
            self.schedule_at_key(
                self.now + task["period"],
                _PERIODIC_KEY,
                (task_id,),
                label=task["label"],
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next pending event (quiet steps aside), or ``None``."""
        self._drop_cancelled()
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Fire the next event, after the quiet steps ordered before it.

        With no event left, runs the next quiet step instead.  Returns
        ``False`` when nothing remains.
        """
        self._drop_cancelled()
        if self._queue:
            self._fire_head()
            return True
        quiet = self._quiet
        while quiet:
            entry = quiet[0]
            if self._run_quiet(entry[0], entry[1]):
                return True
        return False

    def _run_quiet(self, time: float, seq: float) -> bool:
        """Run the quiet steps ordered before an event at ``(time, seq)``.

        Returns whether any ran.  Stops after a step that queues an
        event, so the caller can put that event in order first.
        """
        quiet = self._quiet
        ran = False
        while quiet:
            entry = quiet[0]
            t = entry[0]
            if t > time or (t == time and entry[1] > seq):
                break
            heappop(quiet)
            fn = entry[3]
            if fn is not None:
                entry[3] = None
                self.now = t
                scheduled = self._seq
                fn()
                ran = True
                if self._seq != scheduled:
                    break
        return ran

    def _fire_head(self) -> None:
        """Pop the queue head, which must be live, settle the quiet steps
        ordered before it, and run its callback.

        The settling runs inside the event's trace span: an event's span
        includes the quiet work that had to happen before it.
        """
        time, seq, handle = heappop(self._queue)
        handle._sim = None
        self.now = time
        callback = handle.callback
        handle.callback = None
        self._events_fired += 1
        if self.on_event is not None:
            self.on_event(time, handle.label)
        key = handle.key
        if key is None:
            fn, args = callback, ()
        else:
            fn = self._registry.get(key)
            if fn is None:
                raise SimulationError(
                    f"event {handle.label or key!r} fired but "
                    f"{key!r} is no longer registered"
                )
            args = handle.args
        tracer = self.tracer
        started = perf_counter() if tracer is not None else 0.0
        try:
            quiet = self._quiet
            if quiet and quiet[0][0] <= time:
                self._settle_before(time, seq, handle)
            fn(*args)
        finally:
            if tracer is not None:
                tracer.record(
                    "engine." + (handle.label or "unlabeled"),
                    perf_counter() - started,
                )

    def _settle_before(self, time: float, seq: int, handle: EventHandle) -> None:
        """Run the quiet steps ordered before the popped event ``handle``.

        A quiet step must not cancel that event or queue one ahead of it:
        it is already on its way out of the queue.
        """
        scheduled = self._seq
        while self._run_quiet(time, seq):
            pass
        self.now = time
        if handle.cancelled:
            raise SimulationError(
                f"a quiet step cancelled {handle.label or handle.key!r} "
                "as it fired"
            )
        if self._seq != scheduled:
            self._drop_cancelled()
            if self._queue and self._queue[0][0] < time:
                raise SimulationError(
                    "a quiet step queued an event ahead of "
                    f"{handle.label or handle.key!r}, which was firing"
                )

    def run_until(self, end: float) -> None:
        """Fire all events with ``time <= end``, then advance the clock to ``end``.

        Quiet steps up to ``end`` have run when it returns.
        """
        if end < self.now:
            raise SimulationError(f"run_until({end}) is before now ({self.now})")
        if self._running:
            raise SimulationError("run_until called re-entrantly from a callback")
        self._running = True
        try:
            while True:
                self._drop_cancelled()
                # Re-read after every event: _compact() replaces the list.
                queue = self._queue
                if queue and queue[0][0] <= end:
                    self._fire_head()
                elif not self._run_quiet(end, _AFTER_ALL):
                    break
            self.now = end
        finally:
            self._running = False

    def run_until_datetime(self, when: Any) -> None:
        """:meth:`run_until` with a calendar instant."""
        self.run_until(self.clock.to_seconds(when))

    def run(self) -> None:
        """Fire every queued event (including newly spawned ones) until empty."""
        while self.step():
            pass

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialise clock position, counters, heap, and task table.

        Raises :class:`SimulationError` if the queue still holds live
        closure-scheduled events -- only registry specs re-materialise.
        Cancelled closure tombstones are fine: they serialise as counted
        tombstones and never fire.
        """
        opaque = sorted(
            {
                h.label or "<unlabeled>"
                for _, _, h in self._queue
                if not h.cancelled and h.key is None
            }
        )
        if opaque:
            raise SimulationError(
                "cannot snapshot: queue holds closure-scheduled events "
                f"without registry keys: {', '.join(opaque)}"
            )
        return {
            "version": _STATE_VERSION,
            "now": self.now,
            "seq": self._seq,
            "events_fired": self._events_fired,
            "events_cancelled": self._events_cancelled,
            "heap_compactions": self._heap_compactions,
            "queue": [
                {
                    "time": h.time,
                    "seq": h.seq,
                    "label": h.label,
                    "cancelled": bool(h.cancelled),
                    "key": h.key,
                    "args": list(h.args),
                }
                for _, _, h in sorted(self._queue)
            ],
            "periodic_next": self._periodic_next,
            "periodic": {
                str(task_id): {
                    "period": task["period"],
                    "key": task["key"],
                    "args": list(task["args"]),
                    "label": task["label"],
                    "cancelled": task["cancelled"],
                }
                for task_id, task in sorted(self._periodic.items())
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Replace the queue, counters, and task table wholesale.

        Any event or quiet step scheduled between construction and this
        call (e.g. by components re-created during restore) is discarded
        -- the snapshot is the whole truth, and quiet-step owners queue
        their steps again from their own state.  Registry bindings are
        left alone; every key named by the snapshot must already be
        registered.

        The whole snapshot is parsed before anything is assigned: a
        missing or ill-typed field raises :class:`SimulationError` and
        leaves the simulator exactly as it was.
        """
        if not isinstance(state, dict):
            raise SimulationError("engine snapshot is not a mapping")
        if state.get("version") != _STATE_VERSION:
            raise SimulationError(
                f"cannot load engine state version {state.get('version')!r}"
            )
        queue: List[Tuple[float, int, EventHandle]] = []
        for i, entry in enumerate(_field(state, "queue", list, "engine")):
            where = f"engine queue[{i}]"
            key = _field(entry, "key", (str, type(None)), where)
            label = _field(entry, "label", str, where)
            if key is not None and key not in self._registry:
                raise SimulationError(
                    f"snapshot queue entry {label or key!r} needs "
                    f"unregistered key {key!r}"
                )
            time = float(_field(entry, "time", _REAL, where))
            seq = int(_field(entry, "seq", _INTEGRAL, where))
            handle = EventHandle(
                time,
                seq,
                None,
                label,
                key=key,
                args=tuple(_field(entry, "args", (list, tuple), where)),
            )
            handle.cancelled = _field(entry, "cancelled", bool, where)
            queue.append((time, seq, handle))
        periodic: Dict[int, Dict[str, Any]] = {}
        for task_id, task in _field(state, "periodic", dict, "engine").items():
            where = f"engine periodic[{task_id!r}]"
            try:
                tid = int(task_id)
            except (TypeError, ValueError):
                raise SimulationError(f"{where}: task id is not an integer") from None
            periodic[tid] = {
                "period": float(_field(task, "period", _REAL, where)),
                "key": _field(task, "key", str, where),
                "args": tuple(_field(task, "args", (list, tuple), where)),
                "label": _field(task, "label", str, where),
                "cancelled": _field(task, "cancelled", bool, where),
            }
        now = float(_field(state, "now", _REAL, "engine"))
        seq = int(_field(state, "seq", _INTEGRAL, "engine"))
        fired = int(_field(state, "events_fired", _INTEGRAL, "engine"))
        cancelled = int(_field(state, "events_cancelled", _INTEGRAL, "engine"))
        compactions = (
            int(_field(state, "heap_compactions", _INTEGRAL, "engine"))
            if "heap_compactions" in state
            else 0
        )
        periodic_next = int(_field(state, "periodic_next", _INTEGRAL, "engine"))

        # Parsed: commit.  Handles of the discarded queue no longer count
        # against this simulator if someone cancels them later.
        for _, _, h in self._queue:
            h._sim = None
        for _, _, h in queue:
            if not h.cancelled:
                h._sim = self
        heapify(queue)
        self._queue = queue
        self.now = now
        self._seq = seq
        self._events_fired = fired
        self._events_cancelled = cancelled
        self._heap_compactions = compactions
        self._cancelled_pending = sum(1 for _, _, h in queue if h.cancelled)
        self._periodic = periodic
        self._periodic_next = periodic_next
        # Quiet steps belong to their owners, which queue them again.
        self._quiet = []
        self._quiet_ties = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _push(self, handle: EventHandle) -> EventHandle:
        handle._sim = self
        heappush(self._queue, (handle.time, handle.seq, handle))
        return handle

    def _note_cancel(self) -> None:
        """A queued handle was cancelled; maybe compact the heap."""
        self._cancelled_pending += 1
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Sweep every cancelled tombstone from the heap in one pass."""
        keep = [entry for entry in self._queue if not entry[2].cancelled]
        dropped = len(self._queue) - len(keep)
        heapify(keep)
        self._queue = keep
        self._events_cancelled += dropped
        self._cancelled_pending = 0
        self._heap_compactions += 1

    def _drop_cancelled(self) -> None:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
            self._events_cancelled += 1
            self._cancelled_pending -= 1


#: Snapshot field types (``bool`` is rejected where a number is expected).
_REAL = numbers.Real
_INTEGRAL = numbers.Integral


def _field(entry: Any, name: str, kinds: Any, where: str) -> Any:
    """``entry[name]`` if present and of type ``kinds``, else :class:`SimulationError`."""
    if not isinstance(entry, dict):
        raise SimulationError(f"{where} is not a mapping")
    if name not in entry:
        raise SimulationError(f"{where} has no {name!r} field")
    value = entry[name]
    if not isinstance(value, kinds) or (
        isinstance(value, bool) and kinds in (_REAL, _INTEGRAL)
    ):
        names = kinds if isinstance(kinds, tuple) else (kinds,)
        raise SimulationError(
            f"{where}: {name!r} is {type(value).__name__}, not "
            + " or ".join(k.__name__ for k in names)
        )
    return value
