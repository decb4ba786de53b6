"""Reference kernel that calibrates the benchmark's timings to host speed.

The speed of a shared 2-core host drifts by +-15% over minutes as other
tenants load it, and starlog's timings drift with it.  Timed next to
each operation, this kernel drifts the same way: sweep pass time over kernel
time held within +-4% over 10 s windows where raw pass time moved +-15%.
Work that streams long vectors through the caches (koebe at N = 4*10^4)
drifts more than the kernel, so koebe keeps a wider spread.

End-to-end timings are reported in nominal seconds,
raw seconds * REF_S / kernel seconds measured alongside, where REF_S is
the kernel's typical time on the 2-core x86-64 host (Python 3.11,
numpy 2.4, OpenBLAS pinned to one thread) on which the benchmark was
defined.  The kernel shares no code with starlog, so a change to starlog
moves the nominal time exactly as it moves the raw one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.015
_N = 1500


def kernel() -> float:
    """Seconds for a fixed mix of short complex dot products (like the
    series recursions) and Python tuple/dict churn (like the report rows)."""
    a = np.linspace(0.0, 1.0, _N) + 1j
    q = np.zeros(_N, dtype=np.complex128)
    start = time.perf_counter()
    for i in range(1, _N):
        q[i] = np.dot(a[1 : i + 1], q[i - 1 :: -1][:i]) * 1e-3 + a[i]
    table = {}
    for i in range(20_000):
        table[(i, complex(i))] = (float(i), i + 1)
    return time.perf_counter() - start


def median_time(reps: int) -> float:
    return statistics.median(kernel() for _ in range(reps))
