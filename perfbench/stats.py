"""The benchmark's arithmetic: percentiles with sample support, open-loop
latency from due times, failure counting, and span self time.

Kept apart from run.py so that test_stats.py can pin each rule.
"""

import math

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of `values`.

    Refused unless at least MIN_BEYOND samples lie beyond the returned
    rank, so p90 needs 100 samples and p99 needs 1000. Infinite values
    (jobs that never completed) are samples like any other.
    """
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"{MIN_BEYOND} needed")
    return sorted(values)[max(rank, 1) - 1]


def median(values):
    """Plain median; used for repeated set-up times, not for tails."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def job_ok(job):
    return job["status"] == "ok"


def job_latency_s(job):
    """Open-loop latency: from when the job was due to its JobComplete.

    Counting from the due time, not from when the generator got round to
    sending it, charges a stall to every job queued behind it. A job that
    was refused or failed never completed: its latency is infinite, so it
    misses any latency limit.
    """
    if not job_ok(job):
        return math.inf
    return job["complete"] - job["due"]


def failed_jobs(jobs):
    """Jobs refused, errored, timed out or protocol-failed."""
    return sum(1 for job in jobs if not job_ok(job))


def jobs_within_limit(jobs, limit_s):
    return [job for job in jobs if job_latency_s(job) <= limit_s]


def windowed_rate(events, seconds, window=1.0):
    """Median over consecutive `window`-second windows of [0, seconds) of
    the weight of the (time, weight) events in each, per second. A median
    over windows keeps a stall in part of the phase from setting the rate."""
    count = max(1, int(seconds // window))
    totals = [0.0] * count
    for t, weight in events:
        i = int(t // window)
        if 0 <= i < count:
            totals[i] += weight
    return median(totals) / window


def max_overlap(intervals):
    """Largest number of [start, end] intervals open at one instant."""
    events = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    events.sort(key=lambda e: (e[0], e[1]))
    open_now = best = 0
    for _, delta in events:
        open_now += delta
        best = max(best, open_now)
    return best


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. `spans` is a list of dicts with start, end, parent
    (index into the list, -1 for a root). Children may overlap each other;
    the union of their intervals, clipped to the parent, is subtracted."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        for c in sorted(children[i], key=lambda j: spans[j]["start"]):
            lo = max(spans[c]["start"], cursor)
            hi = min(spans[c]["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span["end"] - span["start"] - covered)
    return result
