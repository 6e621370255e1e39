"""Order statistics the benchmark reports, in one place and tested."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest value.

    Always an observed sample, never an interpolation — and never the
    half-even ``round(x + 0.5)`` that under-ranks on even counts.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (needs >= 2 values)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
