"""End-to-end figures of a timed run, from per-job wall times.

A workload is a fixed mix of jobs (slots) that a closed loop with one client
runs pass after pass.  Each slot's wall time is the median of its samples,
which removes one-off stalls; the end-to-end figures are then taken over
the slots, so every run weighs the same jobs the same way however many
passes fit in the run.
"""

from __future__ import annotations

import math
import statistics


def tail_percentile(n, beyond=10):
    """Highest whole percentile with at least ``beyond`` of ``n`` samples
    above it (nearest-rank), or ``None`` when ``n`` is too small."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return None


def nearest_rank(values, p):
    """The ``p``-th percentile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def slot_medians(samples):
    """Median wall time of each slot that has at least one sample."""
    return [statistics.median(v) for v in samples.values() if v]


def end_to_end(samples):
    """``jobs_per_s``, ``job_p50_ms`` and the tail over the slot medians.

    ``jobs_per_s`` is the mix's throughput: its job count over the time one
    pass takes when every slot runs at its median.  The tail is the highest
    percentile with ten slots beyond it; ``tail_p`` and ``slots`` report
    which percentile and how many slots it was taken over.
    """
    medians = slot_medians(samples)
    p = tail_percentile(len(medians))
    return {
        "jobs_per_s": len(medians) / sum(medians),
        "job_p50_ms": statistics.median(medians) * 1e3,
        "job_tail_ms": (nearest_rank(medians, p) if p else max(medians)) * 1e3,
        "tail_p": p,
        "slots": len(medians),
        "samples": sum(len(v) for v in samples.values()),
    }
