"""Machine speed next to each job, from a fixed reference loop.

On a shared machine the same job's wall time drifts by a quarter or more
within minutes, and the drift follows the load other tenants put on the
cores from one second to the next.  So right before each job (and each
set-up probe) the run times a short, fixed pure-Python loop with the dict,
tuple and ``Fraction`` work the ring does, with the cyclic collector off,
and reports the job's wall time scaled by ``REFERENCE_S / loop time``: the
wall time the job would have taken with the machine at the speed where the
loop takes ``REFERENCE_S``.  The loop never touches relchern, so a change to
the program moves the scaled times and not the scale.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# the loop's time on an uncontended core of the machine this was tuned on
REFERENCE_S = 0.0025


def reference_loop():
    acc = {}
    for i in range(600):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return len(acc)


def sample():
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
