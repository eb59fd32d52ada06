"""Percentiles that say how many samples they rest on."""

from __future__ import annotations

from typing import NamedTuple


class Percentile(NamedTuple):
    value: float
    samples: int    # how many values the percentile was taken over
    beyond: int     # how many of them lie strictly above it


def percentile(values, p: float) -> Percentile:
    """The p-th percentile, interpolated linearly between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    rank = p / 100 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)
    return Percentile(value, len(xs), sum(1 for x in xs if x > value))
