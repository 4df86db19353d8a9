"""Host-speed calibration for the benchmark's gated timings.

A shared host runs the same code up to about 1.5 times slower for stretches
of a fraction of a second to minutes.  A fixed pure-Python kernel, which
calls nothing of the program, is timed while the program runs; the host
factor is its mean time divided by ``CAL_REF_S``, and a timing divided by
the factor is a timing at the reference host speed.
"""

from __future__ import annotations

import signal
import threading
from time import perf_counter

# kernel time on the reference host (2-vCPU Xeon VM) at full speed
CAL_REF_S = 0.006
# one kernel sample per started CAL_EVERY_S of task time
CAL_EVERY_S = 0.25


def kernel() -> float:
    """Fixed interpreter-bound work that calls nothing of the program."""
    s = 0.0
    for i in range(60000):
        s += (i * 0.5) % 7.0
    return s


def calibrate(n: int) -> float:
    """Summed time of n runs of the calibration kernel."""
    total = 0.0
    for _ in range(n):
        start = perf_counter()
        kernel()
        total += perf_counter() - start
    return total


class HostClock:
    """Samples the host speed while the tasks of one pass run.

    While a task runs, SIGALRM every CAL_EVERY_S runs the kernel in the main
    thread between bytecodes, and the handler's time is taken out of the
    task's time.  After the task the samples are topped up to one per
    started CAL_EVERY_S of task time, so every task has at least one.  Each
    task's time is divided by the factor of its own samples.

    While program threads are alive (``sweep --jobs 2``) the kernel would
    time GIL hand-offs, not the host, so such a task is not sampled: its
    time is divided by the factor of all the other tasks' samples.
    """

    def __init__(self):
        self.tasks: list[tuple[float, float, int]] = []  # (time, kernel time, samples)
        self._cal, self._n, self._skipped, self._busy = 0.0, 0, 0, False

    def _tick(self, signum, frame):
        if self._busy:
            return
        if threading.active_count() > 1:
            self._skipped += 1
            return
        self._busy = True
        start = perf_counter()
        kernel()
        self._cal += perf_counter() - start
        self._n += 1
        self._busy = False

    def start(self) -> None:
        self._cal, self._n, self._skipped = 0.0, 0, 0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> float:
        """Stop sampling; return the time the samples took during the task."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self._cal

    def finish(self, elapsed: float) -> None:
        """Record a task's time, net of the samples taken during it."""
        if self._skipped:
            self.tasks.append((elapsed, 0.0, 0))
            return
        n = max(0, 1 + int(elapsed / CAL_EVERY_S) - self._n)
        self.tasks.append((elapsed, self._cal + calibrate(n), self._n + n))

    def normalized(self) -> float:
        """Summed task time at the reference host speed."""
        cal = sum(c for _, c, _ in self.tasks)
        n = sum(k for _, _, k in self.tasks)
        rest = cal / n / CAL_REF_S if n else 1.0
        return sum(t / (c / k / CAL_REF_S) if k else t / rest for t, c, k in self.tasks)
