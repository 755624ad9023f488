"""Statistics shared by every benchmark metric.

Kept apart from run.py so the self-tests (test_stats.py) cover exactly the
code that produces the reported numbers.
"""

import math

# Percentiles a timing may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)
# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def samples_beyond(n, p):
    """Number of samples strictly above the nearest-rank p-th percentile."""
    return n - nearest_rank(n, p)


def nearest_rank(n, p):
    """1-based rank of the nearest-rank p-th percentile of n samples."""
    if n <= 0:
        raise ValueError("no samples")
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def supported_percentile(n, ladder=PERCENTILE_LADDER):
    """Highest percentile of `ladder` with at least MIN_BEYOND samples beyond
    it, or None when even the lowest is unsupported."""
    for p in ladder:
        if n > 0 and samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p):
    """Nearest-rank p-th percentile of `values` (need not be sorted)."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def summarize(values, p):
    """The p-th percentile with its sample count and whether the sample
    supports it: {"value", "n", "beyond", "supported"}."""
    n = len(values)
    if n == 0:
        return {"value": 0.0, "n": 0, "beyond": 0, "supported": False}
    beyond = samples_beyond(n, p)
    return {"value": percentile(values, p), "n": n, "beyond": beyond,
            "supported": beyond >= MIN_BEYOND}


def expand(buckets):
    """The samples a histogram holds, ascending.  Each [low, width, count]
    bucket contributes `count` values spread evenly over [low, low + width)
    (`low` itself when the bucket is one unit wide), so a percentile falling
    in a bucket is placed by its rank within it rather than read as one
    value per bucket."""
    out = []
    for low, width, count in sorted(buckets):
        if width == 1:
            out.extend([low] * count)
        else:
            out.extend(low + width * (2 * i + 1) / (2 * count) for i in range(count))
    return out


def ratio_with_base(numerator, base):
    """A ratio reported together with its base; 0 when the base is 0."""
    return {"value": numerator / base if base else 0.0,
            "numerator": numerator, "base": base}


def covered_length(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its child spans cover.  `spans` is a list of dicts with keys id, parent,
    start, end.  Returns {span id: self time}."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) -
            covered_length(s["start"], s["end"], children.get(s["id"], ()))
            for s in spans}


def layer_of(name):
    """Layer of a span name: the module prefix before the first dot."""
    return name.split(".", 1)[0]


def self_time_by_request(spans):
    """Per request, the self time spent in each layer along its blocking
    path: {req: {layer: total self time}}."""
    own = self_times(spans)
    out = {}
    for s in spans:
        layers = out.setdefault(s["req"], {})
        layer = layer_of(s["name"])
        layers[layer] = layers.get(layer, 0) + own[s["id"]]
    return out


def median(values):
    return percentile(values, 50.0) if values else 0.0
