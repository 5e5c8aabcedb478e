"""Statistics shared by the benchmark: percentiles, span self time, names.

Pure standard library, so the self-tests run without hemoflow.
"""

from __future__ import annotations

import re

# Percentiles the report may quote, from the median up.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
# A tail percentile is only quoted when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def valid_metric_name(name):
    """True when ``name`` uses only letters, digits, ``_``, ``.`` and ``-``."""
    return bool(METRIC_NAME.fullmatch(name))


def percentile(values, q):
    """The ``q``-th percentile of ``values`` with linear interpolation
    between closest ranks (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def tail_percentile(n):
    """The highest percentile in PERCENTILES with at least
    MIN_TAIL_SAMPLES of ``n`` samples beyond it, or None if even the
    median has fewer."""
    best = None
    for q in PERCENTILES:
        # round so that 1000 samples give exactly 10 beyond p99
        if round(samples_beyond(n, q), 9) >= MIN_TAIL_SAMPLES:
            best = q
    return best


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start, end, child_intervals):
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(child_intervals, start, end)
