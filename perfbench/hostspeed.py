"""Host-speed probe: a fixed piece of work timed between the chunks of a pass.

On a shared host the same code runs up to 1.8x slower at times, as other
tenants load the machine: the host flips between a fast and a slow state
within seconds, and the share of time spent slow drifts over minutes.
Pure-Python and sparse-LU work slow down together, by the same factor to
within about 5%. The probe does some of each, 15 ms in all on an undisturbed
host. run.py scales the chunk times of a pass by REFERENCE_S over the median
probe time of that pass (see factor), which turns measured times into
seconds at the host's undisturbed speed. The probe never calls omx, so a change to the
program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Time of probe() on the undisturbed 2-vCPU Xeon host (2.0 GHz nominal,
# Python 3.11, scipy 1.17, one BLAS thread) on which the benchmark was
# defined: the 5th percentile of 504 probes taken over seven minutes was
# 0.0148 s.
REFERENCE_S = 0.015

_SIDE = 48
_LOOP = 110_000


class Probe:
    def __init__(self):
        t = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(_SIDE, _SIDE))
        self.matrix = (sp.kronsum(t, t) + 0.1 * sp.eye(_SIDE * _SIDE)).tocsc()
        self.rhs = np.ones(_SIDE * _SIDE)
        self()  # the first call pays for lazy imports inside scipy

    def __call__(self) -> float:
        """Seconds taken by one fixed round of interpreter and sparse-LU work."""
        t0 = time.perf_counter()
        s = 0
        for i in range(_LOOP):
            s += i * i % 7
        spla.splu(self.matrix).solve(self.rhs)
        return time.perf_counter() - t0


def probe_for(probe: Probe, seconds: float) -> list[float]:
    """Probe once, then again until the probes took `seconds` in all."""
    times = [probe()]
    while sum(times) < seconds:
        times.append(probe())
    return times


def factor(probes) -> float:
    """Undisturbed-speed seconds per measured second, from probes timed
    across an interval: REFERENCE_S over their median, which one-off stalls
    of a probe (up to 3x its time) do not move."""
    return REFERENCE_S / statistics.median(probes)
