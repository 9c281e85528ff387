"""Order statistics and the regression verdicts of ``python -m bench compare``.

A timing is reported as a median and a tail percentile, and a tail
percentile is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it; :func:`percentile` enforces that.  :func:`verdict` applies the
no-regression rule: two sets of runs agree when their medians differ by
no more than the metric's bound, and when the run-to-run spread is wider
than the bound the answer is "unresolved" unless every run of one side
beats every run of the other.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

BETTER = "better"
SAME = "same"
WORSE = "worse"
UNRESOLVED = "unresolved"


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ranked samples lie beyond the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it, so a run too short to support its tail fails loudly
    instead of reporting an extreme order statistic as a percentile.
    """
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has fewer than {MIN_BEYOND} samples beyond it"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def verdict(base, change, better: str, bound: float) -> str:
    """Compare two sets of runs of one metric on one workload.

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the share of
    the base median by which the change may be worse and still count as
    the same.  Returns one of ``better``, ``same``, ``worse`` or
    ``unresolved``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    base = [float(v) for v in base]
    change = [float(v) for v in change]
    if all(sign * (c - b) > 0 for b in base for c in change):
        separated = BETTER
    elif all(sign * (c - b) < 0 for b in base for c in change):
        separated = WORSE
    else:
        separated = None
    if max(spread(base), spread(change)) > bound:
        return separated or UNRESOLVED
    base_median = statistics.median(base)
    gain = sign * (statistics.median(change) - base_median)
    if base_median != 0.0:
        gain /= abs(base_median)
    if gain < -bound:
        return WORSE
    if gain > bound:
        return BETTER
    return SAME
