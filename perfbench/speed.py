"""A fixed reference kernel that gauges how fast the machine is right now.

On a shared machine other tenants slow every process down, in spells that
last from seconds to minutes; a run's wall times move with them by 20% or
more.  The benchmark times this kernel next to the work it measures and
reports times scaled to NOMINAL_S, the kernel's time when the machine is
quiet, so the spells largely cancel.  The kernel mixes what spoofsense
spends its time on -- batched FFTs, a Python loop over small numpy calls
and plain bytecode -- and touches no spoofsense code, so a change to
spoofsense cannot move it.
"""

import time

import numpy as np

# median-of-three kernel time in quiet spells on a 2-core x86_64 VM (Python 3.11, numpy 2.4)
NOMINAL_S = 0.005

_X = np.random.default_rng(0).normal(size=(64, 1024))


def _kernel():
    t0 = time.perf_counter()
    for _ in range(4):
        np.fft.irfft(np.abs(np.fft.rfft(_X, axis=1)) ** 2, axis=1)
    acc = 0.0
    for row in _X[:, :128]:
        acc += float(np.dot(row, row))
    s = 0
    for i in range(20000):
        s += i * i
    return time.perf_counter() - t0


def reference_seconds():
    """Median of three runs of the kernel (~12 ms in all)."""
    return sorted(_kernel() for _ in range(3))[1]
