"""Latency percentiles with sample counts, and run-to-run spread.

Every timing is reported as a median plus the highest percentile that has
at least :data:`TAIL_MIN_BEYOND` samples beyond it; a failed operation is
a sample of ``inf`` (it misses every latency limit).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: candidate tail percentiles, lowest first
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)

#: a percentile is reported only with at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def supported_tail(count: int) -> Optional[float]:
    """Highest tail percentile with ``TAIL_MIN_BEYOND`` samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile_label(p: float) -> str:
    """``90.0`` -> ``p90``, ``99.9`` -> ``p99.9``."""
    return "p" + (f"{p:g}")


def latency_summary(samples_ms: Sequence[float], failures: int = 0) -> Dict:
    """Median and supported tail of ``samples_ms`` plus ``failures`` misses.

    Returns ``{"samples", "p50", "tail", "tail_value"}``; ``tail`` is the
    label of the supported tail percentile (``None`` when the run is too
    short for any).
    """
    values: List[float] = list(samples_ms) + [math.inf] * int(failures)
    if not values:
        raise ValueError("no latency samples")
    tail = supported_tail(len(values))
    return {
        "samples": len(values),
        "p50": percentile(values, 50.0),
        "tail": None if tail is None else percentile_label(tail),
        "tail_value": None if tail is None else percentile(values, tail),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method).
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
