"""A fixed reference loop that gauges how fast this machine runs right now.

The benchmark's hosts are shared: the speed a single-threaded Python
process gets drifts by tens of percent over seconds to minutes, with CPU
time moving as much as wall time.  Each repeat times this loop just before
and just after its workload, in the same process and on the same inputs
every time, and between the workload's steps, and scales its measured
times by ``scale``: the loop's nominal time over its measured time.  A scaled time is the time the repeat would
have taken on the machine running at the speed where the loop takes
``NOMINAL_S``.  The loop uses no rctm code, so a change to rctm cannot move
it; it mimics the two kinds of work rctm's hot paths do, a scalar float
loop in the interpreter (``core.orbit_chunks``) and numpy on small arrays
step by step (``core.iterate_batch``).
"""

from __future__ import annotations

import math
import time

import numpy as np

SCALAR_STEPS = 2_000_000
VECTOR_STEPS = 30_000
VECTOR_WIDTH = 100
# both loops together, in seconds, at the reference speed (about a calm
# phase of a 2-vCPU Xeon virtual machine)
NOMINAL_S = 0.4


def scalar_loop(steps: int = SCALAR_STEPS) -> float:
    """Seconds for a pure-Python tent-map loop."""
    t = time.perf_counter()
    mu, x, floor = 3.7, 0.3141592653589793, math.floor
    for _ in range(steps):
        y = mu * x if x < 0.5 else mu * (1.0 - x)
        x = y - floor(y)
    return time.perf_counter() - t


def vector_loop(steps: int = VECTOR_STEPS, width: int = VECTOR_WIDTH) -> float:
    """Seconds for a step-by-step numpy loop over a small array."""
    t = time.perf_counter()
    x = np.linspace(0.1, 0.9, width)
    for _ in range(steps):
        y = np.where(x < 0.5, 3.7 * x, 3.7 * (1.0 - x))
        x = y - np.floor(y)
    return time.perf_counter() - t


def measure() -> dict:
    return {"scalar_s": scalar_loop(), "vector_s": vector_loop()}


def scale(samples: list[dict]) -> float:
    """Nominal over measured time of the loops, averaged over ``samples``."""
    measured = sum(m["scalar_s"] + m["vector_s"] for m in samples) / len(samples)
    return NOMINAL_S / measured


def scaled_time(steps: list[float], samples: list[dict]) -> float:
    """Total time of ``steps`` at the reference speed.  With a sample before
    each step and one after the last, each step is scaled by the two samples
    around it; otherwise every step by all of them."""
    if len(samples) != len(steps) + 1:
        return sum(steps) * scale(samples)
    return sum(t * scale(samples[i:i + 2]) for i, t in enumerate(steps))
