"""Summary statistics for the csrecon benchmark (standard library only)."""

from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

MIN_BEYOND = 10


class Tail(NamedTuple):
    """A high percentile of a latency sample, with the evidence behind it.

    ``value`` is the sample at ``percentile``; ``beyond`` samples of ``n``
    are strictly past it in rank.
    """

    value: float
    percentile: float
    beyond: int
    n: int


def tail(samples: Sequence[float]) -> Tail:
    """The highest percentile that has at least ten samples beyond it.

    With n sorted samples that is the (n-10)-th smallest, the
    100*(n-10)/n-th percentile. Fewer than eleven samples support no
    such percentile; the maximum is returned with ``beyond`` = 0.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= MIN_BEYOND:
        return Tail(ordered[-1], 100.0, 0, n)
    rank = n - MIN_BEYOND
    return Tail(ordered[rank - 1], 100.0 * rank / n, MIN_BEYOND, n)


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))
