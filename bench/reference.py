"""Reference kernels: the machine's current speed, from code that is not nilmult's.

Other tenants of a shared machine slow it down by up to half for tens of
seconds at a time, far more than the bounds the benchmark needs.  So every
timing is scaled to a fixed reference speed: by REFERENCE_NOMINAL_S over the
time a fixed kernel took close to it.  The kernels run no nilmult code, so a
change to nilmult moves raw and scaled times alike.

Interpreted code and big-integer arithmetic slow down by different amounts
when the machine is loaded, so there are two kernels, and each workload is
scaled by the one matching the work its time goes to (``workloads.py``).
"""

from __future__ import annotations

import time

KERNELS = ("interpreted", "bigint")  # the order of kernel_seconds()
REFERENCE_NOMINAL_S = 200e-6  # about what either kernel takes on an idle 2-core x86-64 VM

_ITEMS = 600
_FACTOR = 7**3500  # about 10k bits
_DIVISOR = 3**3500


def kernel_seconds() -> tuple[float, float]:
    """Seconds each kernel takes now, in the order of KERNELS.

    The interpreted kernel allocates tuples and dict entries and sorts with a
    key function, as nilmult's interpreted layers do; a plain arithmetic loop
    slows down less than they do.
    """
    start = time.perf_counter()
    totals: dict[tuple[int, int], int] = {}
    for i in range(_ITEMS):
        key = (i % 50, i % 7)
        totals[key] = totals.get(key, 0) + i
    sorted(totals.items(), key=lambda item: item[1])
    middle = time.perf_counter()
    divmod(_FACTOR * _FACTOR, _DIVISOR)
    return middle - start, time.perf_counter() - middle
