"""Machine-speed calibration for timings on a shared, drifting CPU.

On the 2-vCPU VM this benchmark was built on, the same Python code runs
in a fast or a slow mode (about 1.7x apart) that switches every few
seconds to minutes, so raw times of identical runs spread by 20-30%.  A
fixed kernel of Python-object work (dict and tuple churn plus a small
matrix product; no ddbd code) is timed at both ends of every measured
interval and, from a SIGVTALRM handler, every TICK_S of CPU time inside
it.  The interval's wall time, minus the kernel runs inside it, is
scaled by CAL_REF_S over the median kernel time.  Scaled times are
"reference seconds": seconds in a machine state where the kernel takes
CAL_REF_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

CAL_REF_S = 0.002
TICK_S = 0.2             # CPU seconds between samples inside an interval
_M = np.random.default_rng(0).standard_normal((40, 60))


def kernel_seconds():
    """Time one run of the fixed calibration kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        layers = [{(i, j): j * 0.5 for j in range(60)} for i in range(40)]
        best = {0: 0.0}
        for i, layer in enumerate(layers):
            nxt = {}
            for (_, j), w in layer.items():
                v = best.get(j % 7, 0.0) + w
                key = (j, round(v * 1e3))
                if key not in nxt or v < nxt[key]:
                    nxt[key] = v
            best = {k[0] % 11: v for k, v in nxt.items()}
            _M[i] @ _M.T
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    raw_s: float = 0.0      # wall seconds of the interval, kernel runs excluded
    scale: float = 1.0      # raw seconds -> reference seconds


class SpeedProbe:
    """Kernel samples at both ends of an interval and every TICK_S of CPU inside it."""

    def __init__(self):
        kernel_seconds()          # warm the kernel's code paths
        self._samples = []
        self._inside = 0.0
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum, frame):
        k = kernel_seconds()
        self._samples.append(k)
        self._inside += k

    @contextmanager
    def interval(self):
        """Time the block; the yielded Timing is filled in when it exits."""
        timing = Timing()
        self._samples = [kernel_seconds()]
        self._inside = 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            yield timing
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            self._samples.append(kernel_seconds())
            timing.raw_s = elapsed - self._inside
            timing.scale = CAL_REF_S / statistics.median(self._samples)
