"""Small statistics and digest helpers shared by the runner and its tests."""

from __future__ import annotations

import hashlib

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, int, float]:
    """The highest percentile that still has TAIL_BEYOND samples beyond it.

    Returns (value, rank, percentile), with rank 1-based in ascending
    order.  With too few samples the rank falls back to the median's.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return ordered[rank - 1], rank, 100.0 * rank / n


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]

