"""Order statistics shared by bench/run.py and its self-check, bench/steady.py."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """Smallest sample count for which percentile q has MIN_BEYOND beyond it."""
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile q (0 < q < 1), or None when too few samples.

    The rank is ceil(q * n); the samples ranked above it are the ones
    "beyond" the percentile, and there must be at least MIN_BEYOND of them.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(values)
    rank = math.ceil(q * n - 1e-9)
    if rank < 1 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
