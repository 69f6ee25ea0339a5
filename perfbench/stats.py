"""The benchmark's own statistics: medians, quartiles, tail percentiles,
host-speed factors, span self time and ratios printed with their base.
Tested by test_stats.py.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it, so one outlier cannot set it.
MIN_TAIL_SAMPLES = 10
STANDARD_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    rank = math.ceil(p / 100.0 * n - 1e-9)
    return n - max(rank, 1)


def highest_percentile(n, candidates=STANDARD_PERCENTILES):
    """The highest candidate percentile with MIN_TAIL_SAMPLES samples beyond
    it, or None when even the lowest has too few."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= MIN_TAIL_SAMPLES:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(math.ceil(p / 100.0 * len(ordered) - 1e-9), 1)
    return ordered[rank - 1]


def tail_percentile(values, p):
    """percentile(values, p), refusing a tail with too few samples beyond."""
    if samples_beyond(len(values), p) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has fewer than "
            f"{MIN_TAIL_SAMPLES} beyond it (highest allowed: "
            f"p{highest_percentile(len(values))})")
    return percentile(values, p)


def union_length(intervals):
    """Length of the union of `intervals`, each a (start, end) pair."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children count once).

    `spans` is a list of dicts with tid, start and end. A span's parent is
    the innermost span on the same thread whose interval contains it, so a
    span that overlaps a sibling without fitting inside it is that
    sibling's sibling, not its child. Returns the self times in the order
    of `spans`."""
    order = sorted(range(len(spans)), key=lambda i: (
        spans[i]["tid"], spans[i]["start"], -spans[i]["end"]))
    children = [[] for _ in spans]
    open_spans = []  # the enclosing chain of the span being placed
    for i in order:
        s = spans[i]
        while open_spans and (spans[open_spans[-1]]["tid"] != s["tid"] or
                              spans[open_spans[-1]]["end"] < s["end"]):
            open_spans.pop()
        if open_spans:
            children[open_spans[-1]].append((s["start"], s["end"]))
        open_spans.append(i)
    return [s["end"] - s["start"] - union_length(children[i])
            for i, s in enumerate(spans)]


def speed_factor(samples_ns, nominal_ns):
    """What a time measured while a fixed piece of reference work took
    `samples_ns` (its samples) is multiplied by to give the time on a host
    where that work takes `nominal_ns`: nominal over the samples' median. A
    rate is divided by it."""
    return nominal_ns / median(samples_ns)


def ratio(numerator, denominator):
    """(value, text) with the base spelled out, e.g. (0.25, '0.25 (1/4)');
    a zero base gives 0 and says so."""
    value = numerator / denominator if denominator else 0.0
    return value, f"{value:.6g} ({numerator:g}/{denominator:g})"
