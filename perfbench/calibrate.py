"""A fixed reference kernel that tracks how fast the machine is right now.

On a shared machine the speed of the same code drifts by tens of percent
over minutes (other tenants' load on shared cores and caches), which swamps
any change the benchmark is meant to detect.  The benchmark therefore times
this kernel right before and right after every timed workload iteration and
reports its times scaled to a nominal kernel time:

    reported = measured * REFERENCE_KERNEL_S / kernel time measured alongside

The kernel does the kinds of work the workloads do (interpreter loops over
small numpy arrays, CSV parsing and float formatting) and never calls the
package, so a change to the package cannot move it.  Raw times are recorded
next to the scaled ones.
"""

import csv
import io
import math
import time

import numpy as np

# Median kernel time on the machine the benchmark was written on (2 shared
# x86_64 vCPUs, Python 3.11.7, numpy 2.4.6).  Only a unit: it rescales every
# run alike.
REFERENCE_KERNEL_S = 0.05

_ROWS = "".join(f"{1478198376 + i / 997:.6f},{i % 26:04x},{'RT'[i % 7 == 0]}\n" for i in range(8000))


def _kernel():
    rng = np.random.default_rng(0)
    w = np.ones(10)
    hits = 0
    for t in range(1200):
        c = np.cumsum(w / w.sum())
        for u in rng.random(6).tolist():
            hits += int(np.searchsorted(c, u))
        w[t % 10] *= math.exp(0.01)
        w /= w.max()
    for row in csv.reader(io.StringIO(_ROWS)):
        hits += int(float(row[0]) > 0) + (row[2] == "T")
    text = ",".join(f"{v:.17g}" for v in rng.random(8000).tolist())
    return hits + len(text)


def kernel_seconds():
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def timed_with_kernel(fn):
    """Run ``fn()``; return its result and the mean kernel time around it."""
    before = kernel_seconds()
    out = fn()
    return out, 0.5 * (before + kernel_seconds())


def scale(seconds, kernel_s):
    """``seconds`` as they would read at the reference kernel speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s
