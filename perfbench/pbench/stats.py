"""Percentiles under the benchmark's sample rule.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; otherwise the estimate would rest on a handful
of outliers and move from run to run for no reason.  Medians need at
least :data:`MIN_MEDIAN` samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10
MIN_MEDIAN = 3


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def samples_needed(q: float) -> int:
    """Smallest sample count for which the ``q``-th percentile is
    reported (``q`` in percent)."""
    if q <= 50:
        return MIN_MEDIAN
    n = MIN_BEYOND
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank
    ``q``-th percentile."""
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank; the median interpolates).

    Raises :class:`TooFewSamples` for a tail percentile (``q > 50``)
    with fewer than :data:`MIN_BEYOND` samples beyond it, and for a
    median of fewer than :data:`MIN_MEDIAN` samples.
    """
    n = len(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if q == 50:
        if n < MIN_MEDIAN:
            raise TooFewSamples(
                f"median of {n} sample(s); need {MIN_MEDIAN}"
            )
        return float(statistics.median(values))
    if q > 50 and beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {max(0, beyond(n, q))} beyond "
            f"it; need {MIN_BEYOND} ({samples_needed(q)} samples)"
        )
    if n == 0:
        raise TooFewSamples("percentile of no samples")
    xs = sorted(values)
    return float(xs[max(1, math.ceil(q / 100.0 * n)) - 1])
