"""Order statistics and the comparison rule the benchmark reports with.

Percentiles use the nearest-rank definition, so every reported value is a
sample that was actually measured.  ``tail_percentile`` names the highest
percentile with at least ``MIN_TAIL`` samples ranked above it, which is
how far into the tail a set of samples can speak.
"""

import math
import statistics

MIN_TAIL = 10
WIN_SHARE = 0.9


def percentile(values, pct):
    """Nearest-rank percentile: the sample at rank ceil(pct/100 * n)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(n, pct):
    return min(n, max(1, math.ceil(pct / 100 * n)))


def ranked_above(n, pct):
    """How many of n samples rank above the nearest-rank pct percentile."""
    return n - _rank(n, pct)


def tail_percentile(n, candidates=(99.9, 99, 95, 90, 75, 50), min_tail=MIN_TAIL):
    """The highest candidate percentile with at least min_tail samples above it.

    Returns None when even the lowest candidate has too few samples beyond.
    """
    for pct in sorted(candidates, reverse=True):
        if ranked_above(n, pct) >= min_tail:
            return pct
    return None


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def verdict(parent, change, better, bound):
    """Judge one metric on one workload from runs paired by seed.

    parent[i] and change[i] were measured on the same seed.  The change
    is "better" when it wins at least nine tenths of the pairs (ties count
    for neither side) and its median beats the parent's by more than the
    distance between the parent's quartiles.  When either side's spread
    exceeds the bound the result is "unresolved", unless every change run
    beats every parent run.  Otherwise it is "worse" when its median is
    worse than the parent's by more than bound times the parent's median,
    and "within bound" when not.  Returns (verdict, share of pairs won).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same positive number of runs on both sides")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    share = wins / len(parent)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    gain = sign * (p_median - c_median)
    if share >= WIN_SHARE and gain > p_q3 - p_q1:
        return "better", share
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound and not every_run_better:
        return "unresolved", share
    if -gain > bound * abs(p_median):
        return "worse", share
    return "within bound", share
