"""Order statistics used by the benchmark's metrics and its spread report."""
from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_TAIL_SAMPLES = 40  # below this a tail percentile would be no tail


def tail_index(n: int) -> int:
    """Index into the ascending samples of the tail value.

    The tail is p99 once there are 1,000 samples; below that it is the
    highest percentile with at least ten samples beyond it (index n - 11).
    """
    if n >= 1000:
        return math.ceil(0.99 * n) - 1
    if n >= MIN_TAIL_SAMPLES:
        return n - 11
    raise ValueError(f"{n} samples are too few for a tail (need {MIN_TAIL_SAMPLES})")


def tail(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    return ordered[tail_index(len(ordered))]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (the run-to-run spread a metric's bound must exceed)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
