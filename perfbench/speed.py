"""Scale measured times to a host of fixed speed.

The host this benchmark was built on runs other tenants' work on the same
cores, and its speed drifts by up to a factor of two over periods from a
fraction of a second to minutes.  Whole 28 s runs came out uniformly
slow or fast, so taking the best of several passes does not remove it.
A fixed kernel (a pure-Python dict and float loop plus a numpy pass, the
two kinds of work evshape does) timed next to each operation tracks the
drift: over 86 rounds here its time correlated with operation times at
0.73 to 0.83, and dividing by it cut the quartile spread of single
operation times from 20-27 % to 8-12 %.

Every timing the benchmark reports is therefore ``raw * CAL_REF_S / cal``,
where ``cal`` is the median kernel time measured around it: seconds on a
host where the kernel takes ``CAL_REF_S``.  Raw times are kept in the
run's record.  The kernel touches no evshape code, so a change to evshape
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

CAL_REF_S = 0.008  # about the kernel's time on a quiet 2.1 GHz Xeon vCPU
CAL_SAMPLES = 3


def kernel() -> float:
    d: dict[int, float] = {}
    for i in range(40000):
        k = i % 97
        d[k] = d.get(k, 0.0) + math.log1p(i)
    a = np.arange(400_000, dtype=np.float64)
    return float(np.exp(a * 1e-6).sum()) + d[0]


def calibrate(samples: int = CAL_SAMPLES) -> list[float]:
    """Time the kernel ``samples`` times."""
    out = []
    for _ in range(samples):
        t0 = perf_counter()
        kernel()
        out.append(perf_counter() - t0)
    return out


def scale(cal: list[float]) -> float:
    """Factor that turns a raw time measured amid ``cal`` into reference time."""
    return CAL_REF_S / statistics.median(cal)
