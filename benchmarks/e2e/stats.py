"""Summary statistics shared by ``run.py``, the children and ``--compare``.

The benchmark owns its statistics instead of importing them from the
program under test, so a change to ``repro.analysis`` cannot change how
the benchmark reads its own numbers.  ``percentile`` is nearest-rank,
the same definition as :func:`repro.analysis.latency.percentile` (a test
holds the two together).
"""

from __future__ import annotations

import statistics
from statistics import median
from typing import Sequence, Tuple

__all__ = ["median", "percentile", "quartiles", "spread"]


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``ceil(p/100 * n)``) of a sorted sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    if p == 0:
        return sorted_values[0]
    rank = -(-p * len(sorted_values) // 100)
    return sorted_values[int(rank) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
