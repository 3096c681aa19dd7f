"""Arithmetic of the benchmark: medians, the tail-percentile rule, spreads.

Kept free of any graphfree import so the tests in ``tests/`` can check it
on its own.
"""

from __future__ import annotations

import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it, so a single slow operation cannot set it.
TAIL_MIN_BEYOND = 10


def rank(p: int, n: int) -> int:
    """Nearest rank of whole percentile p among n samples: ceil(p n / 100)."""
    return max(1, -(-p * n // 100))


def tail_percentile(n: int) -> int:
    """Highest whole percentile in 50..99 with at least TAIL_MIN_BEYOND samples beyond it."""
    for p in range(99, 49, -1):
        if n - rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile "
                     f"with {TAIL_MIN_BEYOND} samples beyond it")


def latency_summary(latencies_s) -> dict:
    """Median and tail latency in ms, with the percentile and sample count used."""
    xs = sorted(latencies_s)
    n = len(xs)
    p = tail_percentile(n)
    return {"p50_ms": statistics.median(xs) * 1e3,
            "tail_ms": xs[rank(p, n) - 1] * 1e3,
            "tail_percentile": p,
            "samples": n,
            "beyond_tail": n - rank(p, n)}


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
