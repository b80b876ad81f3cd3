"""Summary statistics the benchmark computes itself.

The percentile definition lives here rather than being imported from
the program, so a change to the program cannot change how its own
results are measured.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from typing import Iterable, List, Sequence, Tuple

#: tail percentiles tried from the highest down; the first with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of the sample's mid-distribution.

    Each distinct value sits at its mid-rank ``(below + ties / 2) / n``
    and the percentile interpolates linearly between neighbouring
    distinct values (without ties this is the Hazen plotting position).
    Simulated latencies often repeat exactly, and a plain order statistic
    then jumps from one repeated value to the next as a seed shifts their
    shares by a few samples; the mid-distribution percentile moves
    smoothly with those shares instead.
    """
    counts = Counter(values)
    if not counts:
        raise ValueError("percentile of an empty sample")
    n = len(values)
    target = q / 100.0
    below = 0
    prev_value = prev_mid = None
    for value in sorted(counts):
        ties = counts[value]
        mid = (below + ties / 2.0) / n
        if mid >= target:
            if prev_value is None:
                return value
            frac = (target - prev_mid) / (mid - prev_mid)
            return prev_value + frac * (value - prev_value)
        below += ties
        prev_value, prev_mid = value, mid
    return prev_value


def beyond(n: int, q: float) -> int:
    """Samples ranked above the ``q``-th percentile of ``n`` samples."""
    return int(math.floor(n * (1.0 - q / 100.0) + 1e-9))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, q)``: the highest ladder percentile with at least ten
    samples beyond it.  A sample too small for p90 falls back to the
    highest percentile that still leaves ten beyond, but never below
    the median."""
    n = len(values)
    for q in TAIL_LADDER:
        if beyond(n, q) >= TAIL_MIN_BEYOND:
            return percentile(values, q), q
    q = max(50.0, 100.0 * (1.0 - TAIL_MIN_BEYOND / n))
    return percentile(values, q), q


def label(q: float) -> str:
    return "p%g" % round(q, 1)


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 50.0)


def pstdev_over_mean(values: Sequence[float]) -> float:
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(var) / mean


def fingerprint(rows: List[list]) -> str:
    """A short hash over per-request simulated outcomes.  JSON writes
    floats with ``repr`` precision, so any last-bit change shows."""
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
