"""The benchmark's arithmetic, kept apart from process handling so that
test_analysis.py can check it: the percentile rule, ratios with their
bases, the capacity-ladder decision and span self time."""

import math
import statistics

# A percentile is reported only where at least this many samples lie
# beyond it; otherwise the next lower whole percentile is used.
SAMPLES_BEYOND = 10


def percentile(values, q, beyond=SAMPLES_BEYOND):
    """The q-th percentile under the percentile rule.

    Returns {"percentile": p, "value": v, "samples": n}: p is the highest
    whole percentile <= q with at least `beyond` samples strictly above
    its rank, v is linearly interpolated between closest ranks (the
    library's Sample::Percentile rule). With fewer than beyond + 1
    samples there is no such percentile and p and v are None.
    """
    n = len(values)
    if n <= beyond:
        return {"percentile": None, "value": None, "samples": n}
    p = min(int(q), math.floor(100.0 * (1.0 - beyond / n)))
    # Floating error can put floor() one below an exact boundary.
    while p + 1 <= q and n * (1.0 - (p + 1) / 100.0) >= beyond - 1e-9:
        p += 1
    ordered = sorted(values)
    pos = p / 100.0 * (n - 1)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= n:
        value = ordered[-1]
    else:
        value = ordered[lo] * (1 - frac) + ordered[lo + 1] * frac
    return {"percentile": p, "value": value, "samples": n}


def tail_mean(values, q, beyond=SAMPLES_BEYOND):
    """Mean of the slowest (100 - p)% of samples, p being the percentile
    the percentile rule allows for q (so at least `beyond` samples are
    averaged). Unlike a percentile of a discrete-event simulation, it
    does not sit on one quantized value (a retry timeout, a fixed
    service cost) for every seed. Returns {"percentile", "value",
    "samples", "tail_samples"}."""
    p = percentile(values, q, beyond)
    if p["percentile"] is None:
        return dict(p, tail_samples=0)
    n = len(values)
    k = n - math.floor(n * p["percentile"] / 100.0 + 1e-9)
    tail = sorted(values)[n - k:]
    return {"percentile": p["percentile"], "value": sum(tail) / k,
            "samples": n, "tail_samples": k}


def mean(values):
    """{"value": mean or None, "samples": n}."""
    n = len(values)
    return {"value": sum(values) / n if n else None, "samples": n}


def ratio(num, den):
    """num / den with both bases kept; 0 when the base is empty."""
    return {"value": (num / den) if den else 0.0, "num": num, "den": den}


def median(values):
    return statistics.median(values)


def spread(values):
    """Interquartile range as a share of the median (the steadiness
    figure): statistics.quantiles(n=4) Q3 - Q1, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def rung_verdict(rung, limits):
    """Whether one ladder rung meets the limits.

    `rung` has offered_hz, achieved_hz, error_rate and recog_p99_ms /
    render_p99_ms (None when the percentile rule left no p99, which
    fails). Returns (passed, [reasons it failed]).
    """
    reasons = []
    if rung["achieved_hz"] < limits["keep_up"] * rung["offered_hz"]:
        reasons.append("achieved %.0f Hz < %.2f x offered %.0f Hz" % (
            rung["achieved_hz"], limits["keep_up"], rung["offered_hz"]))
    if rung["error_rate"] > limits["error_rate"]:
        reasons.append("error rate %.4f > %.4f" % (
            rung["error_rate"], limits["error_rate"]))
    for key in ("recog_p99_ms", "render_p99_ms"):
        value = rung[key]
        if value is None or value > limits[key]:
            reasons.append("%s %s > %s" % (key, value, limits[key]))
    return (not reasons, reasons)


def ladder_capacity(rungs, limits):
    """Capacity on a fixed ladder: the highest rung such that it and every
    lower rung pass. Rungs above the first failure do not count even if
    they pass. The capacity is that rung's achieved rate (the measured
    form of its offered rate); 0 when the lowest rung fails.

    Returns (capacity_hz, offered_hz of that rung or None, [per-rung
    verdicts in ascending order]).
    """
    best = None
    verdicts = []
    failed = False
    for rung in sorted(rungs, key=lambda r: r["offered_hz"]):
        passed, reasons = rung_verdict(rung, limits)
        verdicts.append({"offered_hz": rung["offered_hz"], "passed": passed,
                         "reasons": reasons})
        if not passed:
            failed = True
        elif not failed:
            best = rung
    if best is None:
        return 0.0, None, verdicts
    return best["achieved_hz"], best["offered_hz"], verdicts


def self_times(spans):
    """Self time per span: its duration minus the part of it that its
    children cover (overlapping children counted once, clipped to the
    parent). `spans` is a list of (name, start, end, parent, request)
    with parent an index into the list or -1. Returns a list of self
    times, one per span, in the spans' units."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c in sorted(children[index], key=lambda i: spans[i][1]):
            c_start = max(spans[c][1], cursor)
            c_end = min(spans[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_self_times(spans):
    """Self time summed per layer, the span name's first dotted part."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0) + own
    return totals
