"""Host-speed normalisation of the benchmark's times.

A shared machine can change speed by 30-40% from one minute to the next,
and by 10-20% from one second to the next, for every kind of work at once.
To keep that out of the figures, ``HostClock`` runs a small fixed
calibration job from a SIGALRM handler every ``INTERVAL_S`` while it is
active, so it also samples the host's speed in the middle of long ops.
The job uses no library code, so a change to the library cannot change
it.  A timed sample is then

* its wall time minus the calibration jobs run inside it, and
* scaled by ``REF_S / c``, where ``c`` is the median time of the
  calibration jobs run inside it, or of the ``MIN_JOBS`` nearest ones when
  fewer ran inside it.

A reported time is therefore the time the sample would have taken on a
host where the calibration job takes ``REF_S``; the run prints the raw
wall-clock figures next to them.  The jobs take about 2% of the run.

On a shared 2-core host, repeated runs of one fixed op spread by 0.14-0.31
(interquartile range over median) in wall time, and by 0.09-0.13 once
scaled this way.  The correction is partial: when the host is busy the
library's ops slow down somewhat more than the job does, so a run's
scaled figures still move a little with the host's speed.
"""

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.0024      # calibration-job time that defines the reference speed
INTERVAL_S = 0.1    # one calibration job per this much wall time
MIN_JOBS = 5        # least number of jobs behind one scale factor

_M = np.random.default_rng(0).random((16, 16))
_D = np.arange(16.0)


def calibration_job():
    """About 2 ms of fixed work: an integer loop (interpreter speed) and a
    short scan of trigonometric 16x16 matrices and their singular values
    (the shape of the spectral scan's inner loop)."""
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    low = 0.0
    for k in range(25):
        gamma = 0.1 + 0.04 * k
        low += np.linalg.svd(np.cos(gamma * _M) + np.diag(np.sin(gamma * _D)),
                             compute_uv=False)[-1]
    return acc, low


class HostClock:
    """``with HostClock() as clock:`` samples the host speed until the block
    ends; afterwards ``clock.sample(t0, t1)`` gives a sample's times."""

    def __init__(self):
        self.starts = []      # start of each calibration job
        self.durations = []   # its duration
        self._previous = None

    def _job(self, *_):
        t0 = perf_counter()
        calibration_job()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        for _ in range(MIN_JOBS):
            self._job()
        self._previous = signal.signal(signal.SIGALRM, self._job)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_JOBS):
            self._job()
        return False

    def sample(self, t0, t1):
        """(seconds at the reference speed, wall seconds) of the sample that
        ran from t0 to t1, both without the calibration jobs inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        wall = (t1 - t0) - sum(inside)
        if len(inside) < MIN_JOBS:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2.0)
            first = max(0, min(mid - MIN_JOBS // 2, len(self.starts) - MIN_JOBS))
            inside = self.durations[first:first + MIN_JOBS]
        return wall * REF_S / statistics.median(inside), wall

    def speed(self):
        """Median calibration time over the run, as a multiple of REF_S."""
        return statistics.median(self.durations) / REF_S
