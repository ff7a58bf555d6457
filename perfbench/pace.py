"""The reference workload that puts timings on one speed scale.

The host's speed drifts by up to 1.6x over minutes with the load of the
other machines sharing it: whole 60 s runs of identical planted sweeps
averaged 7.2 s in one run and 11.6 s in another.  Each child interpreter
times this fixed workload, which does not use topickit, right after its
set-up and right after its sweep, on the same core and within seconds of
the timed work.  ``run.py`` scales the child's wall times by
``REFERENCE_S`` over the mean of those timings: seconds at the speed at
which the reference takes ``REFERENCE_S``, about its time on an unloaded
core of the 2-core Xeon VM the benchmark was tuned on.
"""

import time

import numpy as np

REFERENCE_S = 0.3
LOOP = 3_000_000  # interpreter steps, like topickit's per-document loops
CALLS = 30_000  # small numpy calls, like LDA's E-step


def time_reference() -> float:
    """Wall time of the reference workload: an interpreter loop, then small numpy calls."""
    x = np.linspace(0.0, 1.0, 32)
    m = np.outer(x, x)
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    for _ in range(CALLS):
        x = np.exp(-(m @ x) / 32.0)
    return time.perf_counter() - start
