"""Host time for the benchmark: CPU time, at a fixed reference speed.

Two things move a host figure that are not the simulator:

- **Waiting for a core.** Other processes, and the hypervisor running
  other guests (the kernel accounts that as steal time), stretch wall
  time. :func:`host_clock` reads this thread's CPU time instead, which
  does not count them.
- **A core that runs slower.** On a shared host the same code runs up
  to twice as fast or slow, for seconds or minutes at a time, with what
  the other tenants of the core and its caches do; CPU time sees it
  fully. :class:`HostTimer` with ``gauge=True`` measures that speed
  while the simulator runs: a CPU timer (``ITIMER_PROF``) interrupts the
  process every :data:`INTERVAL_S` of CPU time, and the signal handler
  runs one short fixed slice of reference work — a small pure-Python
  discrete-event loop (a heap of timed events, generator processes
  resumed by ``send``, dict counters, slotted objects), code of the
  simulator's character but independent of the repository, so no change
  to the simulator changes its cost. Slices interleave with the
  simulator at a few milliseconds' grain, so both run on the same host
  state. The timer takes the slices' CPU time out of the window and
  divides the rest by how slow the slices ran.

The handler shares no object with the simulation and runs between
bytecodes, so the simulated outcome is unchanged (the benchmark checks
every round's digest).
"""

from __future__ import annotations

import heapq
import signal
import time

#: The clock of host times: this thread's CPU time. The benchmark runs
#: the simulator on one thread.
THREAD_CPU = time.CLOCK_THREAD_CPUTIME_ID

#: CPU time between reference slices.
INTERVAL_S = 0.01

#: Processes and events of one reference slice.
PROCESSES = 16
EVENTS = 1500

#: CPU seconds one slice takes at the reference speed: gauged times read
#: as on a host that runs a slice in exactly this long (a 2.0 GHz Xeon
#: of a shared cloud host takes 1.0 to 1.9 ms).
NOMINAL_S = 0.0015

#: What one slice returns; a different value means the slice is broken.
CHECKSUM = 14_549


def host_clock() -> float:
    """Seconds of CPU time this thread has run."""
    return time.clock_gettime(THREAD_CPU)


class _Job:
    __slots__ = ("pid", "count", "last")

    def __init__(self, pid: int):
        self.pid = pid
        self.count = 0
        self.last = 0


def _process(job: _Job, tally: dict):
    delay = job.pid % 7 + 1
    while True:
        now = yield delay
        job.count += 1
        job.last = now
        key = (job.pid + job.count) % 16
        tally[key] = tally.get(key, 0) + 1
        delay = (now * 31 + job.pid) % 13 + 1


def reference_slice() -> int:
    """Run the reference event loop once; returns its checksum."""
    tally: dict = {}
    jobs = [_Job(pid) for pid in range(PROCESSES)]
    heap = []
    for job in jobs:
        gen = _process(job, tally)
        heapq.heappush(heap, (next(gen), job.pid, gen))
    seq = PROCESSES
    now = 0
    for _ in range(EVENTS):
        now, _, gen = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + gen.send(now), seq, gen))
    for _, _, gen in heap:
        gen.close()
    return sum(j.count * (j.pid + 1) for j in jobs) \
        + sum(tally.values()) + now


class HostTimer:
    """A stopwatch on :func:`host_clock`.

    With ``gauge`` it interleaves reference slices with the code between
    :meth:`start` and :meth:`stop`, and :meth:`stop` returns that code's
    CPU seconds at the reference speed; ``slowness`` is then how many
    times longer than :data:`NOMINAL_S` the window's slices took (2.0:
    the host ran at half the reference speed). Without ``gauge``, or
    when no slice ran, ``slowness`` is 1 and :meth:`stop` returns plain
    CPU seconds.
    """

    def __init__(self, gauge: bool = False):
        self.gauge = gauge
        self.slowness = 1.0
        self.slices = 0
        self._slice_ns = 0
        self._bad = 0
        self._busy = False
        self._start_ns = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.clock_gettime_ns(THREAD_CPU)
        result = reference_slice()
        self._slice_ns += time.clock_gettime_ns(THREAD_CPU) - t0
        self.slices += 1
        if result != CHECKSUM:
            self._bad += 1
        self._busy = False

    def start(self) -> None:
        self._slice_ns = self.slices = self._bad = 0
        if self.gauge:
            self._previous = signal.signal(signal.SIGPROF, self._tick)
        self._start_ns = time.clock_gettime_ns(THREAD_CPU)
        if self.gauge:
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """End the window; returns its seconds (see the class)."""
        if self.gauge:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        elapsed_ns = time.clock_gettime_ns(THREAD_CPU) - self._start_ns
        if self.gauge:
            signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        if self._bad:
            raise RuntimeError(f"{self._bad} reference slices returned a "
                               f"wrong checksum")
        self.slowness = (self._slice_ns / self.slices / 1e9 / NOMINAL_S
                         if self.slices else 1.0)
        return (elapsed_ns - self._slice_ns) / 1e9 / self.slowness
