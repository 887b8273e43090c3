"""The 10-minute archival loop each host executes.

Section 3.5, mechanised:

- every 10 minutes: ``tar`` + ``bzip2`` the kernel tree, ``md5sum`` the
  tarball, compare with the reference; a mismatch *stores* the tarball
  (for later ``bzip2recover`` inspection), a match overwrites it next
  cycle;
- a one-off start fuzz of 0-119 seconds de-synchronises hosts;
- the CPU is busy for the duration of the burst, idle otherwise (which is
  what modulates host power and CPU temperature between polls).

Results accumulate in a :class:`WorkloadLedger`: total run counts per host
and a full record of every wrong hash -- the paper's "5 out of a total of
27627 test runs" census.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.hardware.faults import FaultEvent, FaultKind, FaultLog
from repro.hardware.host import Host, HostState
from repro.sim.clock import MINUTE
from repro.sim.engine import Simulator
from repro.sim.events import EventBus, WrongHash
from repro.state.protocol import check_version, parsing
from repro.workload.bzip2 import Archive, Bzip2Model
from repro.workload.kernel_tree import KernelSourceTree

#: :class:`WorkloadLedger` state layout.
_LEDGER_VERSION = 1
#: :class:`ArchiverProcess` state layout: version 2 stores the position
#: of the pending quiet step; version 1 (a pending ``archiver.step.<id>``
#: event) is upgraded by :mod:`repro.core.legacy`.
_STATE_VERSION = 2
_PHASES = ("cycle-start", "burst")

#: The paper's cycle period: "Each host executes its synthetic load every
#: 10 minutes."
CYCLE_PERIOD_S = 10 * MINUTE
#: Start fuzz: "each host sleeps for 0 to 119 seconds".
START_FUZZ_MAX_S = 119


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one archive-and-verify run."""

    time: float
    host_id: int
    hash_ok: bool
    corrupted_block_count: int
    stored: bool  # mismatching tarballs are kept for inspection

    def __post_init__(self) -> None:
        if self.hash_ok and self.corrupted_block_count:
            raise ValueError("a clean archive cannot have corrupted blocks")


class WorkloadLedger:
    """Fleet-wide census of synthetic-load runs.

    Stores per-host totals and every wrong-hash event (with its archive,
    so the analysis can run ``bzip2recover`` on "the most recent" as the
    paper did).  When built with a campaign event bus, each mismatch is
    published as a :class:`~repro.sim.events.WrongHash` event, which the
    subscribed fault log turns into the census entry.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.runs_per_host: Dict[int, int] = {}
        self.wrong_per_host: Dict[int, int] = {}
        self.wrong_hash_results: List[CycleResult] = []
        self.stored_archives: List[Archive] = []
        self.bus = bus

    def __repr__(self) -> str:
        return f"WorkloadLedger(runs={self.total_runs}, wrong={self.total_wrong_hashes})"

    def count_run(self, host_id: int) -> None:
        """Account one clean cycle (all a matching hash changes)."""
        self.runs_per_host[host_id] = self.runs_per_host.get(host_id, 0) + 1

    def record(self, result: CycleResult, archive: Optional[Archive] = None) -> None:
        """Account one cycle."""
        self.count_run(result.host_id)
        if not result.hash_ok:
            self.wrong_per_host[result.host_id] = (
                self.wrong_per_host.get(result.host_id, 0) + 1
            )
            self.wrong_hash_results.append(result)
            if archive is not None:
                self.stored_archives.append(archive)
            if self.bus is not None:
                self.bus.publish(
                    WrongHash(
                        time=result.time,
                        host_id=result.host_id,
                        corrupted_blocks=result.corrupted_block_count,
                    )
                )

    @property
    def total_runs(self) -> int:
        """All synthetic-load runs across the fleet."""
        return sum(self.runs_per_host.values())

    @property
    def total_wrong_hashes(self) -> int:
        """Runs whose md5sum differed from the reference."""
        return sum(self.wrong_per_host.values())

    @property
    def wrong_hash_ratio(self) -> float:
        """Wrong hashes per run (0 when nothing ran)."""
        if self.total_runs == 0:
            return 0.0
        return self.total_wrong_hashes / self.total_runs

    def hosts_with_wrong_hashes(self) -> List[int]:
        """Host ids that reported at least one wrong hash, sorted."""
        return sorted(self.wrong_per_host)

    def most_recent_stored_archive(self) -> Optional[Archive]:
        """The archive the paper recovered ("the most recent")."""
        return self.stored_archives[-1] if self.stored_archives else None

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": _LEDGER_VERSION,
            "runs_per_host": {
                str(k): v for k, v in sorted(self.runs_per_host.items())
            },
            "wrong_per_host": {
                str(k): v for k, v in sorted(self.wrong_per_host.items())
            },
            "wrong_hash_results": [
                [r.time, r.host_id, r.hash_ok, r.corrupted_block_count, r.stored]
                for r in self.wrong_hash_results
            ],
            "stored_archives": [
                [a.host_id, a.time, a.block_count, sorted(a.corrupted_blocks)]
                for a in self.stored_archives
            ],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore; a malformed blob raises :class:`StateError` and changes
        nothing."""
        with parsing("workload_ledger"):
            check_version("workload_ledger", state, _LEDGER_VERSION)
            runs = {int(k): int(v) for k, v in state["runs_per_host"].items()}
            wrong = {int(k): int(v) for k, v in state["wrong_per_host"].items()}
            results = [
                CycleResult(
                    time=float(t),
                    host_id=int(h),
                    hash_ok=bool(ok),
                    corrupted_block_count=int(blocks),
                    stored=bool(stored),
                )
                for t, h, ok, blocks, stored in state["wrong_hash_results"]
            ]
            archives = [
                Archive(
                    host_id=int(h),
                    time=float(t),
                    block_count=int(n),
                    corrupted_blocks=frozenset(int(b) for b in blocks),
                )
                for h, t, n, blocks in state["stored_archives"]
            ]
        self.runs_per_host = runs
        self.wrong_per_host = wrong
        self.wrong_hash_results = results
        self.stored_archives = archives


class ArchiverProcess:
    """The synthetic-load loop on one host.

    The loop is a two-phase state machine whose phase changes run as
    engine quiet steps (:meth:`Simulator.schedule_quiet`): each one
    happens exactly where a per-phase event would fire in the engine's
    ``(time, seq)`` order -- before any fleet tick, collection round,
    meter sample or operator action that follows it -- without costing
    an event.  Its position (phase, cycle start, and the pending step)
    is snapshotted and restored mid-cycle:

    - ``cycle-start``: the 10-minute mark.  A running host goes CPU-busy
      and sleeps ``burst_duration_s`` into the ``burst`` phase; a down
      host sleeps a whole cycle.
    - ``burst``: the tar+bzip2+md5sum burst just finished.  A still-running
      host completes the cycle (hash verify, census record); either way the
      CPU goes idle and the machine sleeps out the cycle remainder.

    Parameters
    ----------
    sim:
        The simulator.
    host:
        The host running the load.
    ledger:
        Fleet-wide census to report into.
    tree:
        Source tree (shared across the fleet; the department installed the
        same kernel snapshot everywhere).
    fault_log:
        Experiment fault log for wrong-hash events.
    burst_duration_s:
        How long one tar+bzip2+md5sum burst keeps the CPU busy.  Defaults
        to the vendor's compression throughput applied to the tree size
        (bzip2 is CPU-bound, so slower platforms stay busy longer).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        ledger: WorkloadLedger,
        tree: Optional[KernelSourceTree] = None,
        fault_log: Optional[FaultLog] = None,
        burst_duration_s: Optional[float] = None,
    ) -> None:
        if burst_duration_s is None:
            size_mb = (tree if tree is not None else KernelSourceTree()).total_bytes / 1e6
            burst_duration_s = size_mb / host.spec.compress_mb_per_s
        if burst_duration_s <= 0 or burst_duration_s >= CYCLE_PERIOD_S:
            raise ValueError("burst must be positive and shorter than the cycle period")
        self.sim = sim
        self.host = host
        self.ledger = ledger
        self.tree = tree if tree is not None else KernelSourceTree()
        self.model = Bzip2Model(self.tree)
        self.fault_log = fault_log
        self.burst_duration_s = burst_duration_s
        self._rng = host._streams.stream("workload")
        self._label = f"archiver.{host.hostname}"
        self._phase = "cycle-start"
        self._cycle_start: Optional[float] = None
        self.alive = True
        #: The pending quiet step (see :meth:`Simulator.schedule_quiet`).
        self._pending: Optional[list] = None
        self._restore_next: Optional[List[float]] = None
        #: The step as one bound method, made once: each phase queues it.
        self._step_fn = self._step
        # "some fuzz is added to the starting phase: each host sleeps for
        # 0 to 119 seconds before commencing the archival process."
        fuzz = float(self._rng.integers(0, START_FUZZ_MAX_S + 1))
        self._pending = sim.schedule_quiet(sim.now + fuzz, self._step_fn)

    def __repr__(self) -> str:
        return f"ArchiverProcess({self.host.hostname}, alive={self.alive})"

    def stop(self) -> None:
        """Terminate the loop (host retired or experiment over)."""
        if self._pending is not None:
            self._pending[3] = None
            self._pending = None
        self.alive = False
        self.host.cpu.busy = False

    # ------------------------------------------------------------------
    def _step(self) -> None:
        if not self.alive:
            self._pending = None
            return
        sim = self.sim
        now = sim.now
        host = self.host
        if self._phase == "cycle-start":
            self._cycle_start = now
            if host.state is HostState.RUNNING:
                host.cpu.busy = True
                self._phase = "burst"
                self._pending = sim.schedule_quiet(
                    now + self.burst_duration_s, self._step_fn
                )
            else:
                self._pending = sim.schedule_quiet(now + CYCLE_PERIOD_S, self._step_fn)
            return
        # burst phase: the tar+bzip2+md5sum run just ended.  The burst may
        # have ended with the host failed mid-cycle; such a run produces no
        # result (the monitoring host simply finds no new md5sum).
        if host.state is HostState.RUNNING:
            self._complete_cycle(now)
        host.cpu.busy = False
        self._phase = "cycle-start"
        # Sleep out the cycle remainder, positive because the constructor
        # holds the burst shorter than the period.
        self._pending = sim.schedule_quiet(
            now + (CYCLE_PERIOD_S - (now - self._cycle_start)), self._step_fn
        )

    def _complete_cycle(self, time: float) -> None:
        model = self.model
        uncorrected = self.host.memory.perform_page_ops(model.page_ops_per_cycle, time)
        blocks = model.corrupted_blocks(uncorrected, self._rng)
        # The md5sum comparison: a clean cycle ends here, as one count.
        if model.digest(blocks) == model.reference_digest:
            self.ledger.count_run(self.host.host_id)
            return
        archive = Archive(
            host_id=self.host.host_id,
            time=time,
            block_count=model.block_count,
            corrupted_blocks=blocks,
        )
        result = CycleResult(
            time=time,
            host_id=self.host.host_id,
            hash_ok=False,
            corrupted_block_count=len(blocks),
            stored=True,
        )
        # With a bus-wired ledger the publish inside ``record`` reaches the
        # subscribed fault log; the direct write below covers bare setups.
        self.ledger.record(result, archive=archive)
        if self.fault_log is not None and self.ledger.bus is None:
            self.fault_log.record(
                FaultEvent(
                    time=time,
                    kind=FaultKind.WRONG_HASH,
                    host_id=self.host.host_id,
                    detail=f"{len(blocks)} corrupted block(s)",
                )
            )

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        pending = self._pending
        return {
            "version": _STATE_VERSION,
            "phase": self._phase,
            "cycle_start": self._cycle_start,
            "alive": self.alive,
            "next": self._restore_next if pending is None else pending[:3],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore; a malformed blob raises :class:`StateError` and changes
        nothing.  The pending step is queued again by :meth:`rebind`."""
        with parsing(self._label):
            check_version(self._label, state, _STATE_VERSION)
            phase = state["phase"]
            if phase not in _PHASES:
                raise ValueError(f"unknown phase {phase!r}")
            cycle_start = state["cycle_start"]
            cycle_start = None if cycle_start is None else float(cycle_start)
            alive = state["alive"]
            if not isinstance(alive, bool):
                raise TypeError(f"alive is {type(alive).__name__}")
            pending = state["next"]
            if pending is not None:
                time, seq, tie = pending
                pending = [float(time), int(seq), int(tie)]
            if alive and pending is None:
                raise ValueError("a live loop needs a pending step")
        self._phase = phase
        self._cycle_start = cycle_start
        self.alive = alive
        if self._pending is not None:
            self._pending[3] = None
        self._pending = None
        self._restore_next = pending

    def rebind(self, sim: Simulator) -> None:
        """Queue the restored pending step on the restored engine."""
        pending, self._restore_next = self._restore_next, None
        if pending is not None:
            time, seq, tie = pending
            self._pending = sim.schedule_quiet(time, self._step_fn, position=(seq, tie))
