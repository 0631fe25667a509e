"""The numeric kernels as they stood before the fixed-point exit and the
safeguarded Newton root finder, frozen as a reference for equivalence
tests.

``level_value`` applies all |k| steps of its map, ``series_value`` walks
the bits once for the value only, and ``series_root`` bisects [0, 1]
until the bracket is no wider than ``tol_root`` or its midpoint equals
an end. ``level_value`` takes |k| steps whatever the input, so keep |k|
small enough to wait for.
"""

from __future__ import annotations

import math
from typing import Sequence


def level_value(t: float, k: int) -> float:
    if t == 0.0 or t == 1.0:
        return t
    v = t
    if k > 0:
        for _ in range(k):
            v = 2.0 ** v - 1.0
    else:
        for _ in range(-k):
            v = math.log2(v + 1.0)
    return v


def series_value(m_star: int, bits: Sequence[int], t: float) -> float:
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return float(sum(bits))
    total = 0.0
    v = level_value(t, m_star)
    for i, bit in enumerate(bits):
        if i:
            v = 2.0 ** v - 1.0
        if bit:
            total += v
    return total


def series_root(m_star: int, bits: Sequence[int], tol_root: float) -> float:
    if sum(bits) <= 1:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol_root:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if series_value(m_star, bits, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
