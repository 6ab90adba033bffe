"""Host-speed calibration of the timed loops.

The benchmark runs on a few cores of a shared host whose speed shifts by up
to about 2x for seconds at a time (another tenant on the same physical
core).  Cpu time moves with wall time in those phases, so neither can
tell the program's cost from the host's state.  Each timed loop therefore
interleaves a fixed reference kernel that uses no library code: after every
op it runs the kernel until the kernel's time is SHARE of the loop's op
time so far.  A time is reported at reference speed, that is divided by

    ((mean kernel time within WINDOW_S of it) / REF_KERNEL_S) ** ELASTICITY,

so the figures read as the same work timed on a host where one kernel call
takes REF_KERNEL_S.  The workloads' ops slow down less than the kernel when
the host slows (their time is partly spent waiting on memory), by about
the ELASTICITY power of the kernel's slowdown.  The kernel mixes exact Fraction arithmetic with small
numpy solves, like the workloads; garbage collection is off while it runs,
so the size of the library's heap does not change the kernel's time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

import numpy as np

#: the kernel's time on an unloaded core of a 2-core Intel Xeon
#: (Python 3.11.7, numpy 2.4.6)
REF_KERNEL_S = 0.52e-3
#: op slowdown = kernel slowdown ** ELASTICITY; the best fit over blocks of
#: scan (0.8), exact_edge (0.9) and trace ops timed between kernel calls as
#: the host's speed changed
ELASTICITY = 0.85
#: kernel time per unit of op time
SHARE = 0.1
#: half-width of the window of kernel calls that rates one op
WINDOW_S = 0.5
#: kernel calls that rate one set-up
SETUP_CALLS = 100

_MATRIX = np.arange(25.0).reshape(5, 5) + 7.0 * np.eye(5)


def kernel():
    x = Fraction(1, 3)
    for i in range(60):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
    for i in range(30):
        v = np.linalg.solve(_MATRIX, _MATRIX[i % 5])
        float(_MATRIX.dot(v).sum())
    return x


def timed_kernel():
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        c0 = time.process_time()
        kernel()
        cost = time.process_time() - c0
    finally:
        if enabled:
            gc.enable()
    return start, cost


class HostSpeed:
    """Kernel samples taken between the ops of one timed loop."""

    def __init__(self):
        self.starts = []
        self.times = []
        self.kernel_s = 0.0
        self.op_s = 0.0

    def top_up(self, op_s):
        """Account one op of op_s cpu seconds and run the kernel up to SHARE."""
        self.op_s += op_s
        while self.kernel_s < SHARE * self.op_s:
            start, dt = timed_kernel()
            self.starts.append(start)
            self.times.append(dt)
            self.kernel_s += dt

    def factor(self, t0, t1):
        """How much slower than reference speed the host ran around [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        window = self.times[lo:hi] or self.times
        return (statistics.fmean(window) / REF_KERNEL_S) ** ELASTICITY


def setup_factor():
    """Host slowness right after a set-up, from SETUP_CALLS kernel calls."""
    mean = statistics.fmean(timed_kernel()[1] for _ in range(SETUP_CALLS))
    return (mean / REF_KERNEL_S) ** ELASTICITY
