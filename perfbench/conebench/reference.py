"""A fixed loop that tells how fast the host runs while the benchmark runs.

The development host (2-vCPU Intel Xeon) switches between two speeds about
1.7x apart within milliseconds, and its share of slow time drifts over
minutes.  Raw times of one workload moved by 25-30% between runs.  Timing
this loop next to the measured work and scaling by NOMINAL_S / its mean
time gives seconds at full speed.  Of the loops tried, this one slowed
down in step with the program (log-log slope 0.97-1.02 over 2 s windows,
against 1.2 for a loop of math.sin calls).
"""

from __future__ import annotations

import time

import numpy as np

LOOP = 300
# The loop's time on the development host at full speed.
NOMINAL_S = 1.0e-3


def sample() -> float:
    """Seconds one pass of the loop takes now."""
    a = np.arange(64.0)
    t0 = time.perf_counter()
    for i in range(LOOP):
        float((np.sin(a * 1e-3) + i).sum())
    return time.perf_counter() - t0


def mean_time(count: int) -> float:
    return sum(sample() for _ in range(count)) / count
