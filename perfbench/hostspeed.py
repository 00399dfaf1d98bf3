"""Host-speed calibration: operation times scaled to a fixed reference speed.

On a shared host the CPU that a process gets changes speed by up to 1.5x
for seconds to tens of seconds at a time, and CPU time does not leave that
out: other tenants share the core's caches and its sibling hardware thread.
So the benchmark times a fixed reference loop, which calls nothing of the
program, every `INTERVAL_S` of the process's CPU time, on a SIGPROF timer
that interrupts whatever runs.  An operation's time is its CPU time, less
the samples taken during it, multiplied by ``REFERENCE_S / r``, where ``r``
is the median of the samples taken during it and of the `WINDOW` samples on
each side of it.  The result reads as the operation's time on the host when
the loop takes `REFERENCE_S`.  A change to the program does not change the
loop, so a program that gets slower shows in full; a host that gets slower
mostly does not.  Raw CPU times stay in the manifest.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy

# The reference loop's CPU time on the 2-CPU x86 host the benchmark was
# written on (Python 3.11, numpy 2.4) in that host's fast phases.  It fixes
# the unit of the scaled times, nothing else.
REFERENCE_S = 0.006
INTERVAL_S = 0.25
# samples on each side of an operation that its scale is taken over
WINDOW = 4

# 2^13 amplitudes (128 KiB), the size of the state vectors `sample` works on
_STATE = numpy.ones(1 << 13, dtype=complex)


def reference_loop() -> float:
    """Array work on a state-vector-sized buffer, driven from a Python loop,
    like the program's own inner loops; 6 to 9 ms on the reference host.

    On the reference host this loop follows the speed swings of all three
    workloads more closely than a loop of dict and string work does."""
    x = _STATE.copy()
    acc = 0.0
    for _ in range(150):
        x *= 1.0000001
        # swap neighbouring amplitudes, as an X gate on the lowest qubit does
        x = x.reshape(-1, 2)[:, ::-1].reshape(-1).copy()
        acc += numpy.vdot(x, x).real
    return acc


class HostClock:
    """Reference samples taken on a CPU-time timer while the clock runs
    (``with clock:``), and the scale of the work done around them.

    The samples interrupt the program, so `cpu` leaves out the CPU time
    spent in them."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self._handler = None

    def sample(self, *_) -> None:
        t0 = time.thread_time()
        reference_loop()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.sampling_s += dt

    def __enter__(self) -> "HostClock":
        self.sample()
        self._handler = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._handler)
        self.sample()

    def cpu(self) -> float:
        """CPU time of the benchmark's thread less the time spent in samples.

        Thread CPU time, because on some kernels an armed ITIMER_PROF makes
        the process CPU clock tick-grained; the workloads run on one thread,
        with numpy's thread pools pinned to 1."""
        while True:
            spent = self.sampling_s
            now = time.thread_time()
            if self.sampling_s == spent:   # no sample ran in between
                return now - spent

    def reading(self) -> tuple[float, int]:
        """(`cpu`, index of the next sample), to take before and after work."""
        return self.cpu(), len(self.samples)

    def scale(self, first: int, last: int) -> float:
        """Scale for work during which samples ``first .. last - 1`` were
        taken: `REFERENCE_S` over the median of those and of the `WINDOW`
        samples on each side of the work.

        One sample varies by about 10% from the next, with little
        correlation between neighbours, while the host's speed holds for
        seconds; the median of about two seconds of samples follows the
        speed and not the noise."""
        near = self.samples[max(first - WINDOW, 0):last + WINDOW]
        return REFERENCE_S / statistics.median(near)
