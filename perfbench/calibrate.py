"""Calibrated seconds: wall time corrected for the host's changing speed.

On a shared machine the same run can take 1.4x longer (2.5x at worst)
from one minute to the next: other tenants share the physical cores
and caches, so the interpreter retires fewer bytecodes per second.  The process is not
waiting for a core -- its CPU time (``time.process_time``) tracks its
wall time to within half a percent, and the kernel reports no steal --
so CPU time cannot correct for it.  :class:`SpeedProbe` instead samples
the machine's speed all through a run: every ``PERIOD_S`` of wall time
a SIGALRM handler runs a fixed kernel of interpreter work shaped like
the simulator's per-event work (method calls on small objects,
attribute updates, a branch and a dict lookup, over a few hundred
objects) and records how long it took.  A measured span is converted
to *calibrated seconds* by scaling each stretch between samples by
``REF_KERNEL_S`` over the median kernel time of the nearest samples;
the kernel's own time is left out.  ``REF_KERNEL_S`` is the kernel's
time in the fastest state seen on the two-core machine the benchmark
was sized on, so a calibrated second is about one wall second there.

The kernel is the benchmark's own code, so a change to the program
cannot speed it up.  It creates no container objects, so no garbage
collection -- which would walk the program's heap -- runs inside it.
It does share caches with the program and starts cold after every
stretch of program work; the program's heap is far larger than the
core's private caches, so they are already fully evicted between two
samples and a program change cannot make that start much colder.  The
handler touches nothing of the program, so outputs stay identical (the
digest checks confirm it on every run).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
#: Span label of a probe sample in a traced run.
PROBE = "bench.probe"
REF_KERNEL_S = 1.0e-3
#: Samples on each side of a stretch whose median sets its speed.
NEIGHBOURS = 2
OBJECTS = 512
STEPS = 2500


class _Unit:
    def __init__(self, index: int) -> None:
        self.value = float(index)
        self.count = 0
        self.name = f"u{index}"

    def tick(self, dt: float) -> bool:
        self.value = self.value * 0.99 + dt
        self.count += 1
        return self.value > 10.0


class _Kernel:
    """The kernel's objects, built once per probe."""

    def __init__(self) -> None:
        self.units = [_Unit(i) for i in range(OBJECTS)]
        self.by_name = {unit.name: unit for unit in self.units}

    def __call__(self) -> int:
        units, by_name = self.units, self.by_name
        hot = 0
        for k in range(STEPS):
            unit = units[(k * 7) % OBJECTS]
            if unit.tick(0.5):
                hot += 1
            by_name[unit.name].count += 1
        return hot


class SpeedProbe:
    """Samples kernel time every ``PERIOD_S`` between :meth:`start` and
    :meth:`stop`; :meth:`calibrated` converts wall spans afterwards."""

    def __init__(self, tracer=None) -> None:
        self._kernel = _Kernel()
        self.starts = []
        self.costs = []
        self._tracer = tracer

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        tracer = self._tracer
        if tracer is not None:
            tracer.push(PROBE)
        started = perf_counter()
        self._kernel()
        self.costs.append(perf_counter() - started)
        self.starts.append(started)
        if tracer is not None:
            tracer.pop()

    def _scale(self, index: int) -> float:
        n = len(self.costs)
        index = min(max(index, 0), n - 1)
        nearby = self.costs[max(0, index - NEIGHBOURS) : index + NEIGHBOURS + 1]
        return REF_KERNEL_S / statistics.median(nearby)

    def factor(self) -> float:
        """Run-wide scale: reference over the median kernel time."""
        return REF_KERNEL_S / statistics.median(self.costs)

    def calibrated(self, t0: float, t1: float) -> float:
        """Calibrated seconds of program work in the wall span ``[t0, t1]``."""
        if not self.costs:
            raise RuntimeError("the speed probe took no samples")
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        total = 0.0
        cursor = t0
        for i in range(first, last):
            total += (self.starts[i] - cursor) * self._scale(i)
            cursor = min(t1, self.starts[i] + self.costs[i])
        return total + max(0.0, t1 - cursor) * self._scale(last)
