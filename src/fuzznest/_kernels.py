"""Numeric kernels: the level maps, the cardinality series and its root,
and the greedy encoder.

The level map u_k(t) is k up steps _up(v) = 2^v - 1 for k > 0, |k| down
steps _down(v) = log2(v + 1) for k < 0. The pair is the one place the
map is written out but for _series, and _climb the one ladder of it:
the walk that keeps its rungs. The encoder's searches, _initial_index
and greedy_encode's upward search, step _up and _down themselves,
because each step there also tests the residual.
Consecutive levels satisfy u_{k+1} = 2^(u_k) - 1 for every integer k,
which lets series and scans advance incrementally instead of
recomputing each level from scratch. Differentiating that recurrence
gives the slope of each level, u'_{k+1} = ln2 * 2^(u_k) * u'_k, and
going down u'_{k-1} = u'_k / (ln2 * (u_k + 1)), with u'_0 = 1.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import IndexCapExceededError

_LN2 = math.log(2.0)


def _up(v: float) -> float:
    return 2.0 ** v - 1.0


def _down(v: float) -> float:
    return math.log2(v + 1.0)


def _climb(rungs: list[float], k: int) -> float:
    """rungs[|k|] of a ladder, grown as far as |k| asks.

    rungs[j] is u_{+-j}(rungs[0]), one _up step (k > 0) or _down step
    (k < 0) from rungs[j - 1], so a caller keeps one ladder per sign.
    Once a step returns its input the ladder ends with that value
    repeated, which stands for every higher level. Such a stall need not
    be a fixed point of the map: from t in (1.7e-16, 1 - 2^-52) the up
    walk stalls at 2^-52 (2.0 ** v rounds to 1 + 2^-52, not to 1) and
    from t in (3.5e-16, 1 - 2^-52) the down walk at 1 - 3 * 2^-53. Over
    t in (0, 1) both stall within 207 steps (96 up and 112 down from
    t = 0.3), so any |k| costs bounded work.
    """
    n = k if k >= 0 else -k
    if n < len(rungs):
        return rungs[n]
    v = rungs[-1]
    if len(rungs) > 1 and rungs[-2] == v:
        return v  # the ladder ended where a step returned its input
    step = _up if k > 0 else _down
    append = rungs.append
    for _ in range(n + 1 - len(rungs)):
        nxt = step(v)
        if nxt == v:
            append(v)  # not nxt: the step takes -0.0 to 0.0
            break
        append(nxt)
        v = nxt
    return v


def level_value(t: float, k: int) -> float:
    """u_k(t), read from a new ladder of t. 0 and 1 stay exact."""
    return _climb([t], k)


def _series(m_star: int, bits: Sequence[int], t: float) -> tuple[float, float]:
    """(G(t), G'(t)) in one walk over the bits; bits[i] is at m_star + i.

    The steps are inline, sharing 2^v and v + 1 with the slope: calling
    _up and _down per bit made an evaluation a third slower (15.7 against
    11.9 us over 200 encoder outputs, CPython 3.11 on one Xeon core)."""
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


def series_root(m_star: int, bits: Sequence[int], tol_root: float) -> float:
    """Unique t with G(t) = 1, by safeguarded Newton on [0, 1].

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
    """(k, u_k(w)) for the least k < 0 with u_k(w) + w - 1 <= 0, a side that
    decreases in k, else (0, w). The walk down raises on passing -max_index,
    or where a step returns its input, after which its test cannot change."""
    s0 = w - 1.0
    k, v = 0, w
    while True:
        nxt = _down(v)
        if nxt + s0 > 0.0:
            return k, v
        if nxt == v or k == -max_index:
            raise IndexCapExceededError(
                f"initial index search passed -{max_index}"
            )
        k -= 1
        v = nxt


def greedy_encode(
    w: float, tol_residual: float, max_terms: int, max_index: int
) -> tuple[int, list[int], bool, float]:
    """Greedy bit selection for w in (0, 1].

    Keeps a residual s = (partial series at w) - 1, which starts at
    w - 1 for the mandatory bit at index 0 and gains u_k(w) per chosen
    bit. Each next index is the least k above the previous one (never 0)
    that keeps s <= 0. Stops when |s| <= tol_residual, or flags
    truncation at max_terms bits.

    A first index below 0 comes from _initial_index's walk down, which
    raises IndexCapExceededError where it stalls; every other index from
    one upward search from the previous index (or 0), up to max_index.
    The upward search raises the same error where an _up step returns
    its input without keeping s <= 0, since neither s nor the level can
    change after that, so its work is bounded whatever max_index is.

    Returns (m_star, bits, truncated, residual).
    """
    s = w - 1.0
    chosen: list[int] = []
    while abs(s) > tol_residual and len(chosen) + 1 < max_terms:
        if not chosen:
            k, v = _initial_index(w, max_index)
        if chosen or k == 0:
            while True:
                k += 1
                if k > max_index:
                    search = "index" if chosen else "initial index"
                    raise IndexCapExceededError(f"{search} search passed {max_index}")
                nxt = _up(v)
                if k != 0:
                    if s + nxt <= 0.0:
                        v = nxt
                        break
                    if nxt == v:
                        k = max_index  # a stall: the next step raises as the cap does
                v = nxt
        chosen.append(k)
        s += v
    indices = [0, *chosen]  # chosen ascends and never holds 0
    m_star = min(indices)
    bits = [0] * (max(indices) - m_star + 1)
    for c in indices:
        bits[c - m_star] = 1
    return m_star, bits, abs(s) > tol_residual, s
