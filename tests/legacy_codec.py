"""The sequence parser and the greedy encoder as they stood before the
token-loop parser and the single upward level search, frozen as a
reference for equivalence tests.

``parse_sequence`` walks the text one character at a time and computes
each error's byte offset from its character index. ``_initial_index``
runs its own upward search and walks down until ``max_index`` levels are
spent, even after its iterate stops changing, so keep ``max_index``
small enough to wait for. Sequences and errors are the package's own, so
results compare with ``==``.
"""

from __future__ import annotations

import math

from fuzznest import BinarySequence
from fuzznest.errors import IndexCapExceededError, InvariantError, ParseError

_ELLIPSIS = "…"


def parse_sequence(text: str) -> BinarySequence:
    """Parse text like "10|01", "(1,0|1,0,1,1)", or "|0100…".

    The bar is the mandatory 1-bit at index 0; bits left of it run up to
    index -1, bits right of it from index 1. Commas and whitespace are
    ignored, one pair of surrounding parentheses is allowed, and a
    trailing ellipsis ("…" or "...") marks the sequence as truncated.
    """

    def at(j: int) -> int:
        return len(text[:j].encode("utf-8"))

    left: list[int] = []
    right: list[int] = []
    side = left
    bar_seen = False
    truncated = False
    opened = False
    closed = False
    started = False
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n,":
            i += 1
            continue
        if closed:
            raise ParseError("unexpected input after ')'", at(i))
        if truncated and ch != ")":
            raise ParseError("unexpected input after the ellipsis", at(i))
        if ch == "(":
            if started or opened:
                raise ParseError("unexpected '('", at(i))
            opened = True
        elif ch == ")":
            if not opened:
                raise ParseError("unexpected ')'", at(i))
            closed = True
        elif ch == _ELLIPSIS:
            truncated = True
        elif ch == ".":
            if text[i : i + 3] != "...":
                raise ParseError("stray '.'", at(i))
            truncated = True
            i += 3
            continue
        elif ch == "|":
            if bar_seen:
                raise ParseError("second '|' marker", at(i))
            bar_seen = True
            side = right
            started = True
        elif ch in "01":
            side.append(int(ch))
            started = True
        else:
            raise ParseError(f"unexpected character {ch!r}", at(i))
        i += 1
    if opened and not closed:
        raise ParseError("missing ')'", at(n))
    if not bar_seen:
        raise ParseError("missing '|' marker", at(n))
    if left and left[0] == 0:
        raise InvariantError("the leftmost bit of the left part must be 1")
    return BinarySequence(-len(left), tuple(left + [1] + right), truncated)


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
