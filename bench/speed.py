"""Host speed, so that timings stay comparable on a shared machine.

On a machine shared with other tenants the same code runs 20-40 % slower for
seconds at a time. The benchmark therefore runs a fixed calibration job
between its operations: a Python loop, small numpy calls and random steps of
an array of 4096 walkers, the kinds of work the library does. (A sweep over
an array larger than L2 tracked none of the workloads, so the job has none.)
The job uses no conewalks code, so no change to the library moves it. Each
operation's time is scaled by ``NOMINAL_S`` over the median time of the jobs
run around it; the scaled time reads as on a host that runs the job in
``NOMINAL_S`` seconds, as the reference machine does when it is quiet.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.002    # the job's time on the quiet reference machine
EVERY_S = 0.05       # run the job once this much operation time has passed
WINDOW = 3           # jobs on each side of an operation that set its scale
WARMUP = 5

_SMALL = np.linspace(-1.0, 1.0, 8)
_RNG = np.random.default_rng(0)
_WALKERS = np.zeros(4096, dtype=np.int64)


def job():
    """About 1 ms of each kind of work on the reference machine."""
    acc = 0
    for i in range(10000):
        acc += (i * i) % 7
    total = 0.0
    for _ in range(300):
        total += float(np.exp(_SMALL).sum())
    for _ in range(30):
        _WALKERS[:] = _WALKERS + _RNG.integers(-1, 2, size=_WALKERS.size)
    return acc + total + float(_WALKERS[0])


def time_job():
    t0 = time.perf_counter()
    job()
    return time.perf_counter() - t0


def factor(jobs):
    """Scale from the host's speed over `jobs` (seconds) to nominal speed."""
    return NOMINAL_S / statistics.median(jobs)


class Clock:
    """Interleaves the calibration job with operations and scales their times."""

    def __init__(self):
        for _ in range(WARMUP):
            job()
        self.jobs = []   # seconds of each calibration job, in order
        self.marks = []  # per operation: jobs run before it
        self._since = EVERY_S

    def before_op(self):
        if self._since >= EVERY_S:
            self.jobs.append(time_job())
            self._since = 0.0
        self.marks.append(len(self.jobs))

    def after_op(self, seconds):
        self._since += seconds

    def finish(self):
        """One more job, so that the last operations have jobs after them."""
        self.jobs.append(time_job())
        self._since = 0.0

    def scale(self, i):
        """Time scale of operation `i`: from the jobs just before and after it."""
        k = self.marks[i]
        return factor(self.jobs[max(0, k - WINDOW):k + WINDOW])
