"""Summary statistics for the benchmark's samples.

A timing is reported as its median plus the highest percentile that still has
at least ``MIN_TAIL`` samples beyond it, together with the sample count.
"""

from __future__ import annotations

import statistics

MIN_TAIL = 10
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile on the ladder with at least MIN_TAIL of n samples beyond it."""
    best = None
    for q in LADDER:
        # Compare in whole samples: n * (100 - q) / 100 >= MIN_TAIL.
        if n * (100.0 - q) >= MIN_TAIL * 100.0 - 1e-9:
            best = q
    return best


def describe(values) -> str:
    """'median=.. p<q>=.. n=..' by the reporting rule above."""
    n = len(values)
    text = f"median={statistics.median(values):.6g}"
    q = tail_percentile(n)
    if q is not None:
        text += f" p{q:g}={percentile(values, q):.6g}"
    return text + f" n={n}"
