"""Statistics for the session benchmark: medians and the tail rule.

Every timing is reported as its median plus its tail, with the sample
count. The tail is the highest whole percentile that still has at least
ten samples ranked beyond it, so it is never an extrapolation from a
handful of the slowest samples.
"""

import statistics

MIN_BEYOND = 10


def tail(samples, min_beyond=MIN_BEYOND):
    """The highest whole percentile p in 1..99 whose nearest-rank value has
    at least `min_beyond` samples ranked above it, as `(p, value)`.

    Samples are ranked by sorting, so ties count by position: of two equal
    values the later-ranked one is "beyond" the earlier. Returns None when
    there are fewer than `min_beyond + 1` samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # nearest rank, 1-based: ceil(p * n / 100)
        if n - rank >= min_beyond:
            return p, ordered[rank - 1]
    return None


def describe(samples, scale=1.0):
    """One line: median, tail and n of `samples`, each multiplied by `scale`."""
    if not samples:
        return "no samples"
    line = f"median {statistics.median(samples) * scale:.6g}"
    t = tail(samples)
    if t is None:
        line += f", no tail (n < {MIN_BEYOND + 1})"
    else:
        line += f", p{t[0]} {t[1] * scale:.6g}"
    return line + f", n={len(samples)}"
