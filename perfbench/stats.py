"""Summary statistics shared by the benchmark runner and its tests."""

from __future__ import annotations

import math
import statistics

#: Percentiles the report may quote, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100, 9)))  # round: 99.9 * 10000 / 100 is not exact


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(samples, min_beyond: int = MIN_BEYOND):
    """``(p, value)`` for the highest percentile with ``min_beyond`` samples above it.

    Returns ``None`` when even the median has fewer samples beyond it.
    """
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= min_beyond:
            return p, percentile(samples, p)
    return None


def summarize(samples) -> dict:
    """Median, the tail percentile the sample supports, and the sample count."""
    out = {"n": len(samples), "p50": statistics.median(samples) if samples else None}
    t = tail(samples)
    if t is not None:
        out[f"p{t[0]:g}"] = t[1]
    return out


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; a run that attempted nothing is an error."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside 0..{attempted}")
    return failed / attempted
