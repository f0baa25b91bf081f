"""A clock that runs at the speed of a reference core, not of the wall.

On a shared virtual machine each vCPU's speed drifts, independently of the
other vCPUs, between full speed and about 1.7x slower, in phases of seconds
to minutes.  The drift slows interpreted Python, BLAS and FFT code alike
(their slowdowns correlate at 0.97-0.99 over 0.5 s windows), so wall times of
identical rounds differ by up to 40% between runs of the same code.

``RefClock`` samples the speed of the core the process runs on: a
``SIGALRM`` timer interrupts the main thread every ``PERIOD_S`` seconds and
runs a fixed kernel of three parts twice: interpreted dictionary, string and
float work; small FFTs; and a sum over an array twice the size of the L2
cache, which follows the memory-bound code of the package (a slow phase
slows it less than interpreted code).  The first run refills the caches the
package's work evicted; the second is timed in CPU time of the thread, so the
package's own threads, which may share the core meanwhile, do not count.
The slowdown is the weighted mean of each part's time over its reference
time.  After each sample the clock advances by the wall time elapsed divided
by that slowdown until the next sample; the kernel's own time is left out.
A reading is thus the wall time the same work takes on a core that runs the
kernel at the reference times.  The kernel uses nothing of the package, so
the clock's rate does not depend on the code under test.

The handler runs between bytecodes of the main thread only (a long native
call delays it), so the package's Monte Carlo threads run on while it does.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.04
_Z = np.random.default_rng(0).random(256) + 0j
_BIG = np.random.default_rng(1).random(1 << 19)  # 4 MiB, twice the L2 cache


def _interpreted():
    table = {}
    for i in range(300):
        table[str(i)] = [i, 0.5 * float(i)]
    return sum(v[1] for v in table.values())


def _ffts():
    for _ in range(11):
        np.fft.fft(_Z)


def _memory():
    return float(_BIG.sum())


# (part, its median time in this clock's handler while the package ran, on a
# 2-vCPU Intel Xeon virtual machine with Python 3.11 and 2 MiB L2 per core,
# weight).  The times set the scale of the readings only.  The weights trade
# the x-dependent, interpreted workloads, whose rounds the two compute parts
# steady best, against the memory-bound 10^6-point tabulations.
_PARTS = (
    (_interpreted, 9.0e-5, 0.375),
    (_ffts, 8.5e-5, 0.375),
    (_memory, 3.6e-4, 0.25),
)


class RefClock:
    """Reference-speed time of the calling process; ``start`` before use and
    ``stop`` after, on the main thread."""

    def __init__(self):
        # (wall time of the last sample's end, reference time then, speed
        # since), replaced as one tuple so a reading between two bytecodes
        # of the handler stays consistent
        self._state = (0.0, 0.0, 1.0)
        self.samples = 0

    def _sample(self) -> tuple:
        began = time.perf_counter()
        slowdown = 0.0
        for part, ref, weight in _PARTS:
            part()  # refills the caches the package's work has evicted
            cpu = time.thread_time()
            part()
            slowdown += weight * (time.thread_time() - cpu) / ref
        self.samples += 1
        return began, time.perf_counter(), 1.0 / max(slowdown, 1e-9)

    def _tick(self, signum, frame):
        began, ended, speed = self._sample()
        wall, ref, last = self._state
        self._state = (ended, ref + (began - wall) * last, speed)

    def start(self):
        _, ended, speed = self._sample()
        self._state = (ended, 0.0, speed)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Reference seconds since ``start``."""
        wall, ref, speed = self._state
        return ref + (time.perf_counter() - wall) * speed
