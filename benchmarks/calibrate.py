"""A fixed calibration loop that measures how fast the machine runs right now.

On a shared host the CPU can run at two speeds up to 1.8x apart for
stretches of seconds to minutes. A pure-Python loop, ``numpy.sort`` and a
``spinbath`` call all slow down together, and CPU time slows as much as
wall time. So the benchmark times this loop next to the work it measures
and reports the work's time at the reference speed:

    time at reference speed = measured time * REFERENCE_S / loop time

The loop uses neither ``spinbath`` nor the benchmark's inputs, so a change
to the program does not change it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# Seconds the loop takes at the reference speed: about its time on a
# 2-vCPU Intel Xeon VM (2.0 GHz) in that host's faster phase.
REFERENCE_S = 0.045


def loop() -> float:
    """Python object work (tuples, a dict, a sort, fsum) and numpy array work."""
    rows = []
    index = {}
    for i in range(30_000):
        x = (i * 2654435761 % 1000003) * 1e-6
        rows.append((x, i, -x))
        index[i & 8191] = x
    rows.sort()
    total = math.fsum(r[0] for r in rows)
    a = np.sin(np.arange(300_000, dtype=float))
    a.sort()
    return total + float(np.abs(np.exp(1j * a)).sum())


def measure() -> float:
    """Wall seconds of one run of the loop."""
    gc.collect()
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def at_reference(seconds: float, loop_seconds: list[float]) -> float:
    """``seconds`` measured while the loop took ``loop_seconds``, at reference speed."""
    return seconds * REFERENCE_S / statistics.fmean(loop_seconds)
