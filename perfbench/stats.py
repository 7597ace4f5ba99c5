"""Order statistics and the workload-level figures built from them."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Sequence, Tuple

#: the tail percentile reported beside the median
TAIL_PERCENTILE = 98
#: samples a reported percentile must leave beyond it
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """The *pct*-th percentile of *values* by the nearest-rank rule, and
    the number of samples ranked beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(
    values: Sequence[float], pct: float = TAIL_PERCENTILE
) -> Tuple[float, int]:
    """:func:`nearest_rank` at *pct*, refusing a sample too small to leave
    :data:`MIN_BEYOND` samples beyond it."""
    value, beyond = nearest_rank(values, pct)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(values)} samples leaves {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return value, beyond


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def workload_figures(results: Iterable) -> Dict[str, float]:
    """The figures of one pass over a workload's cells that depend only
    on the simulated runs, not on the machine: identical for identical
    inputs and decisions."""
    results = list(results)
    submitted = sum(r.submitted for r in results)
    committed = sum(r.committed for r in results)
    failed = sum(r.failed for r in results)
    aborts = sum(r.aborts for r in results)
    duration = sum(r.duration for r in results)
    responses = [t for r in results for t in r.response_times]
    p50, _ = nearest_rank(responses, 50)
    p98, beyond = tail_percentile(responses)
    return {
        "submitted": submitted,
        "committed": committed,
        "failed": failed,
        "commit_frac": committed / submitted,
        "aborts_per_commit": aborts / committed,
        "resp_p50": p50,
        "resp_p98": p98,
        "resp_samples": len(responses),
        "resp_p98_beyond": beyond,
        "sim_throughput": 1000.0 * committed / duration,
    }
