"""Sample statistics: medians, percentiles and the sample-count rule.

A percentile is only *supported* when at least :data:`TAIL_MIN_BEYOND`
samples lie beyond it (choosing-metrics guide, section 1): with fewer,
the figure is one or two outliers, not a tail.  ``p95`` therefore needs
200 samples, which only ``rpc-small`` produces.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: samples that must lie beyond a percentile for it to be reported
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in (0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def percentile_supported(n_samples: int, p: float) -> bool:
    """Whether ``n_samples`` leave :data:`TAIL_MIN_BEYOND` beyond ``p``."""
    return n_samples * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND


def supported_percentile(values: Sequence[float],
                         p: float) -> Optional[float]:
    """``percentile(values, p)``, or ``None`` when the sample is too
    small to support it."""
    if not percentile_supported(len(values), p):
        return None
    return percentile(values, p)

