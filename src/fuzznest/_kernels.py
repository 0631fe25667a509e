"""Numeric kernels: the level maps, the cardinality series and its root,
and the greedy encoder.

The level map u_k(t) is k applications of v -> 2^v - 1 for k > 0, |k|
applications of v -> log2(v + 1) for k < 0. Consecutive levels satisfy
u_{k+1} = 2^(u_k) - 1 for every integer k, which lets series and scans
advance incrementally instead of recomputing each level from scratch.
Differentiating that recurrence gives the slope of each level,
u'_{k+1} = ln2 * 2^(u_k) * u'_k, and going down
u'_{k-1} = u'_k / (ln2 * (u_k + 1)), with u'_0 = 1.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import IndexCapExceededError

_LN2 = math.log(2.0)


def level_value(t: float, k: int) -> float:
    """u_k(t). 0 and 1 are fixed points of both maps and stay exact.

    Both maps are deterministic, so once an iterate equals the one
    before it every later one does too: the loop stops there with the
    value all |k| steps would give. In binary64 the iterates settle on
    such a fixed point within about two hundred steps, so even a huge
    |k| costs bounded work.
    """
    if t == 0.0 or t == 1.0:
        return t
    v = t
    if k > 0:
        for _ in range(k):
            nxt = 2.0 ** v - 1.0
            if nxt == v:
                break
            v = nxt
    else:
        for _ in range(-k):
            nxt = math.log2(v + 1.0)
            if nxt == v:
                break
            v = nxt
    return v


def _series(m_star: int, bits: Sequence[int], t: float) -> tuple[float, float]:
    """(G(t), G'(t)) in one walk over the bits; bits[i] is at m_star + i."""
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


def series_value(m_star: int, bits: Sequence[int], t: float) -> float:
    """Sum of u_k(t) over the 1-bits; bits[i] is the bit at m_star + i."""
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return float(sum(bits))
    return _series(m_star, bits, t)[0]


def series_root(m_star: int, bits: Sequence[int], tol_root: float) -> float:
    """Unique t with series_value = 1, by safeguarded Newton on [0, 1].

    The series is strictly increasing with value 0 at t=0 and #bits at
    t=1. A single-bit sequence is the identity series, root exactly 1.
    Each evaluation narrows a bracket: t becomes lo where G(t) < 1, else
    hi. The next point is the Newton step when it lands strictly inside
    the bracket and is at most half the step before last (rtsafe,
    Numerical Recipes 9.4), else a bisection point. While the bracket
    spans more than a factor of 2 (hi > 2 lo) that point is its
    geometric mean, which halves the exponent rather than the value:
    from [0, 0.5] about ten such steps reach a factor of 2 of any root,
    where plain halving takes one step per binade down to the root.
    The mean is sqrt(lo) * sqrt(hi), so lo * hi cannot underflow, with
    the least positive double 5e-324 standing in for lo = 0 (whose mean
    with hi would be 0, an end). Within a factor of 2 the bisection
    point is the arithmetic midpoint. A Newton step shorter
    than tol_root / 2 is lengthened to tol_root / 2 (Brent), so that it
    crosses the root and closes the bracket. Every evaluated point
    becomes an end of the bracket, so none is evaluated twice.

    Stops when the bracket is no wider than tol_root, returning the
    last Newton point if it lies inside, else the midpoint; or when the
    bisection point equals an end of the bracket. Also stops at t with
    4 |G(t) - 1| <= tol_root: the bit at index 0, which every sequence
    holds, adds u_0(t) = t to G, so G' >= 1 and the root lies within
    |G(t) - 1| of t. That bound is used only while the computed slope
    is at least 1 too; a smaller one shows that the walk up from m_star
    has lost the digits of t (far below index 0 every t reaches the
    same float near 1), and then only the bracket is trusted.
    """
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
            if hi > 2.0 * lo:
                nxt = math.sqrt(max(lo, 5e-324)) * math.sqrt(hi)
            else:
                nxt = 0.5 * (lo + hi)
            if nxt <= lo or nxt >= hi:
                return nxt
        before, step = step, abs(nxt - t)
        t = nxt


def _initial_index(w: float, max_index: int) -> tuple[int, float]:
    # least k != 0 with u_k(w) + w - 1 <= 0; the left side decreases in k
    s0 = w - 1.0
    v = math.log2(w + 1.0)
    if v + s0 <= 0.0:
        k = -1
        while True:
            nxt = math.log2(v + 1.0)
            if nxt + s0 > 0.0:
                return k, v
            k -= 1
            v = nxt
            if -k > max_index:
                raise IndexCapExceededError(
                    f"initial index search passed -{max_index}"
                )
    k = 1
    v = 2.0 ** w - 1.0
    while v + s0 > 0.0:
        k += 1
        v = 2.0 ** v - 1.0
        if k > max_index:
            raise IndexCapExceededError(
                f"initial index search passed {max_index}"
            )
    return k, v


def greedy_encode(
    w: float, tol_residual: float, max_terms: int, max_index: int
) -> tuple[int, list[int], bool, float]:
    """Greedy bit selection for w in (0, 1].

    Keeps a residual s = (partial series at w) - 1, which starts at
    w - 1 for the mandatory bit at index 0 and gains u_k(w) per chosen
    bit. Each next index is the least k above the previous one (never 0)
    that keeps s <= 0. Stops when |s| <= tol_residual, or flags
    truncation at max_terms bits.

    Returns (m_star, bits, truncated, residual).
    """
    s = w - 1.0
    terms = 1
    chosen: list[int] = []
    truncated = False
    k = 0
    v = 0.0
    while abs(s) > tol_residual:
        if terms >= max_terms:
            truncated = True
            break
        if not chosen:
            k, v = _initial_index(w, max_index)
        else:
            while True:
                k += 1
                if k > max_index:
                    raise IndexCapExceededError(
                        f"index search passed {max_index}"
                    )
                v = 2.0 ** v - 1.0
                if k != 0 and s + v <= 0.0:
                    break
        chosen.append(k)
        s += v
        terms += 1
    m_star = min(chosen[0], 0) if chosen else 0
    last = max(chosen[-1], 0) if chosen else 0
    bits = [0] * (last - m_star + 1)
    bits[-m_star] = 1
    for c in chosen:
        bits[c - m_star] = 1
    return m_star, bits, truncated, s
