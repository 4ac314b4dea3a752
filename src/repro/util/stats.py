"""Statistics helpers used by the benchmark harness."""

from __future__ import annotations

import math
from collections.abc import Iterable


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty input."""
    vals = list(values)
    if not vals:
        raise ValueError("mean of empty sequence")
    return sum(vals) / len(vals)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, the aggregate the paper reports (GEOMEAN bars).

    All values must be positive.
    """
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
