"""How fast this host is running *right now*, sampled while a
repetition runs.

The ledger is defined on a small shared VM whose speed moves by tens of
per cent in phases of seconds to minutes.  Mostly the slowdown is
invisible to the guest: neighbours on the physical cores slow every
instruction down, and a process's CPU time stretches exactly as its
wall time does.  At times the hypervisor also takes the vCPUs away,
which ``/proc/stat`` reports as steal.  The same untouched repetition
took 5.0, 7.6 and 12.6 s there within two hours.  No statistic over a
30 s run removes a phase that outlasts the run, so the ledger measures
the phase instead: the driver process runs a fixed kernel (about 2 ms
of pure Python and standard-library work, nothing from ``repro``) every
:data:`SAMPLE_SECONDS` beside the nodes, and every time-based
end-to-end metric is divided by the **pace** of the interval it was
measured in — the kernel's mean CPU time there over
:data:`NOMINAL_SECONDS`, its CPU time on the defining host's fast
phase; wall times also by the share of the interval that was not
stolen.  A pace of 1.25 means the host ran everything a quarter slower
than nominal while the interval lasted.

Measured on the defining host over 40-50 consecutive repetitions per
workload, the kernel's time tracked a repetition's window at r = 0.97
(``live-chain``) and 0.98 (``sim-faults``) while the host moved, and
the quartile distance over median of the windows fell from 0.187 to
0.049 and from 0.219 to 0.032; README.md has the run-level figures.

The kernel has two halves because the workloads differ in what slows
them: a small loop of integer, dict and tuple work that stays in the
core's own caches, and a strided walk over ~40 MB of small objects plus
hashing that does not.  Their sum tracked every workload better than
either half alone.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import struct
import time

#: At most one kernel run per this many seconds (~5 % of one core).
SAMPLE_SECONDS = 0.04
#: The kernel's CPU time on the defining host's fast phase.
NOMINAL_SECONDS = 0.0018

_BIG_OBJECTS = 400_000


def _cpu_ticks(cpus: set[int]) -> tuple[int, int]:
    """``(elapsed, stolen)`` clock ticks since boot, summed over
    ``cpus``, from ``/proc/stat``."""
    labels = {f"cpu{cpu}" for cpu in cpus}
    elapsed = stolen = 0
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            fields = line.split()
            if fields[0] in labels:
                # user nice system idle iowait irq softirq steal
                ticks = [int(field) for field in fields[1:9]]
                elapsed += sum(ticks)
                stolen += ticks[7]
    return elapsed, stolen


class HostClock:
    """Kernel samples of one benchmark process, by time."""

    def __init__(self) -> None:
        self._big = [bytes(64) for _ in range(_BIG_OBJECTS)]
        #: (perf_counter when taken, kernel CPU seconds, elapsed and
        #: stolen ticks of the CPUs this process may run on)
        self._samples: list[tuple[float, float, int, int]] = []
        self.sample()

    def sample(self) -> None:
        """Run the kernel once unless it ran less than
        :data:`SAMPLE_SECONDS` ago; call from every poll loop."""
        now = time.perf_counter()
        if self._samples and now - self._samples[-1][0] < SAMPLE_SECONDS:
            return
        # CPU, not wall: a kernel run the scheduler interrupts must not
        # read as a slow host.
        started = time.thread_time()
        self._small()
        self._large()
        cost = time.thread_time() - started
        elapsed, stolen = _cpu_ticks(os.sched_getaffinity(0))
        self._samples.append((time.perf_counter(), cost, elapsed, stolen))

    def _inside(self, since: float, until: float) -> list[tuple[float, float, int, int]]:
        """The samples taken in ``[since, until]`` (``perf_counter``
        readings); the nearest one when the interval holds none."""
        inside = [sample for sample in self._samples if since <= sample[0] <= until]
        if inside:
            return inside
        middle = (since + until) / 2.0
        return [min(self._samples, key=lambda sample: abs(sample[0] - middle))]

    def kernel_seconds(self, since: float, until: float) -> float:
        """Mean CPU time of the kernel over the interval.  The mean,
        not a median: a slow phase is made of bursts, and the nodes'
        CPU time is a sum over them."""
        return statistics.fmean(sample[1] for sample in self._inside(since, until))

    def cpu_pace(self, since: float, until: float) -> float:
        """How many times slower than nominal the host ran instructions
        in the interval: what a process's CPU time is divided by."""
        return self.kernel_seconds(since, until) / NOMINAL_SECONDS

    def wall_pace(self, since: float, until: float) -> float:
        """:meth:`cpu_pace` over the share of the interval the
        hypervisor left to this guest (steal taken out): what a wall
        time is divided by.  The CPUs counted are those this process
        was allowed on when it sampled."""
        inside = self._inside(since, until)
        elapsed = inside[-1][2] - inside[0][2]
        stolen = inside[-1][3] - inside[0][3]
        available = 1.0 - stolen / elapsed if elapsed > 0 else 1.0
        return self.cpu_pace(since, until) / max(available, 0.01)

    @staticmethod
    def _small() -> None:
        total = 0
        table: dict[int, tuple[int, int]] = {}
        for i in range(4000):
            total += i * i % 7
            table[i & 1023] = (i, total)

    def _large(self) -> None:
        big = self._big
        size = 0
        for index in range(0, _BIG_OBJECTS, 97):
            size += len(big[index])
        digest = hashlib.sha256()
        for index in range(600):
            digest.update(
                struct.pack(">QI", index, size & 0xFFFF)
                + big[(index * 7919) % _BIG_OBJECTS]
            )
