"""The numeric kernels as they stood before the fixed-point exit and the
safeguarded Newton root finder, frozen as a reference for equivalence
tests.

``level_value`` applies all |k| steps of its map, ``series_value`` walks
the bits once for the value only, and ``series_root`` bisects [0, 1]
until the bracket is no wider than ``tol_root`` or its midpoint equals
an end. ``level_value`` takes |k| steps whatever the input, so keep |k|
small enough to wait for.

``newton_series_root`` is the safeguarded Newton solver as it stood
before its bisection fallback learned to halve wide brackets in
exponent: it always falls back to the arithmetic midpoint. It calls
its own frozen ``_series``, so tests can count its evaluations.
"""

from __future__ import annotations

import math
from typing import Sequence

_LN2 = math.log(2.0)


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


def _series(m_star: int, bits: Sequence[int], t: float) -> tuple[float, float]:
    v = t
    d = 1.0
    for _ in range(-m_star):
        w = v + 1.0
        d /= _LN2 * w
        v = math.log2(w)
    total = slope = 0.0
    for bit in bits:
        if bit:
            total += v
            slope += d
        p = 2.0 ** v
        v = p - 1.0
        d *= _LN2 * p
    return total, slope


def newton_series_root(m_star: int, bits: Sequence[int], tol_root: float) -> float:
    if sum(bits) <= 1:
        return 1.0
    lo, hi = 0.0, 1.0
    t = 0.5
    step = before = 1.0
    while True:
        g, slope = _series(m_star, bits, t)
        if g < 1.0:
            lo = t
        else:
            hi = t
        nxt = t - (g - 1.0) / slope if slope > 0.0 else t
        inside = lo < nxt < hi
        if 4.0 * abs(g - 1.0) <= tol_root and slope >= 1.0:
            return nxt if inside else t
        if hi - lo <= tol_root:
            return nxt if inside else 0.5 * (lo + hi)
        if inside and abs(nxt - t) <= 0.5 * before:
            if abs(nxt - t) < 0.5 * tol_root:
                nxt = t + math.copysign(0.5 * tol_root, nxt - t)
        else:
            nxt = 0.5 * (lo + hi)
            if nxt <= lo or nxt >= hi:
                return nxt
        before, step = step, abs(nxt - t)
        t = nxt
