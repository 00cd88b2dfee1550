"""A fixed reference kernel, timed between the units of a workload.

On a shared host the speed of the same code drifts by 40% and more
between runs a minute apart, for tens of seconds at a time, while CPU
time stays equal to wall time: the other tenants slow the cores
themselves.  A kernel timed between the units of a pass slows with
them, so the gated throughputs are expressed per *reference second*:
the time of ``RUNS_PER_REF_S`` runs of this kernel, averaged over the
same run.  The kernel mixes scalar Python arithmetic with small numpy
array operations, as the workloads do, and uses no code of the program,
so a change to the program moves the ratio and a change of host speed
mostly does not.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# 0.95 s to 1.4 s of kernel runs on the 2-core Xeon host of the baseline.
RUNS_PER_REF_S = 64

_rng = np.random.default_rng(20241217)
_MATRIX = _rng.random((64, 64))
_VECTOR = _rng.random(4096)


def kernel() -> float:
    """Fixed work: 30000 scalar steps and 300 small array steps."""
    total = 0.0
    for i in range(30000):
        total += math.sin(i * 0.001) * math.sqrt(i + 1.0)
    for _ in range(300):
        cum = np.cumsum(_VECTOR)
        total += float(np.where(cum > 1.0, cum, -cum).sum())
        total += float((_MATRIX @ _MATRIX[0]).sum())
    return total


class Reference:
    """Times of kernel runs, taken whenever :meth:`sample` is called."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - start)

    def second(self) -> float:
        """Wall seconds of one reference second, on average over the run."""
        return RUNS_PER_REF_S * statistics.fmean(self.times)
