"""Binary sequences and the membership codec.

A sequence assigns bits a_k to integer indices k, starting at m_star <= 0
and extending finitely to the right. The bit at index 0 is always 1 and
is written as a vertical bar in text form, so "10|01" holds 1-bits at
indices -2, 0, 2. A sequence selects the universe {x}^(k) for its 1-bits,
and its cardinality series G(t) = sum of u_k(t) over 1-bits is strictly
increasing with G(0) = 0, so G(t) = 1 has exactly one root in (0, 1].

decode finds that root by safeguarded Newton: Newton steps kept inside
a shrinking bracket, which otherwise bisects, in exponent while it spans
more than a factor of 2 and arithmetically after that, so a root far
below 0.5 costs a few more series evaluations than one near it rather
than one more per binade. encode inverts it greedily, picking
ever-higher levels whose contribution keeps the partial series at w
below 1, until the residual drops under tol_residual or max_terms bits
are spent (the truncated flag records which).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

from ._kernels import greedy_encode, level_value, series_root, series_value
from .errors import ConfigError, InvariantError, ParseError, RangeError
from .fuzzy_core import FuzzySet
from .set_expr import AtomUniverse, Braced, SetExpr

__all__ = [
    "BinarySequence",
    "SolverConfig",
    "DEFAULT_CONFIG",
    "iterate_level",
    "sequence_to_universe",
    "series_cardinality",
    "decode",
    "encode",
    "expand_to_fuzzy",
    "parse_sequence",
    "print_sequence",
    "sequence_to_json",
    "sequence_from_json",
]

_ELLIPSIS = "…"


@dataclass(frozen=True, slots=True)
class BinarySequence:
    """Bits a_k for k = m_star .. m_star + len(bits) - 1.

    Invariants: m_star <= 0; the bit at index 0 is 1; if m_star < 0 the
    first bit is 1; a non-truncated sequence never ends in 0 (so finite
    sequences have one canonical form). truncated marks a prefix of a
    longer expansion, where trailing zeros are meaningful.
    """

    m_star: int
    bits: tuple[int, ...]
    truncated: bool = False

    def __post_init__(self):
        try:
            bits = tuple(map(operator.index, self.bits))
        except TypeError:
            raise InvariantError("bits must be 0 or 1") from None
        object.__setattr__(self, "bits", bits)
        if not isinstance(self.m_star, int):
            raise InvariantError("m_star must be an integer")
        if self.m_star > 0:
            raise InvariantError("m_star must be <= 0")
        if not bits:
            raise InvariantError("bits must be non-empty")
        if any(b not in (0, 1) for b in bits):
            raise InvariantError("bits must be 0 or 1")
        if self.last_index < 0:
            raise InvariantError("bits must cover index 0")
        if self.bits[-self.m_star] != 1:
            raise InvariantError("the bit at index 0 must be 1")
        if self.m_star < 0 and self.bits[0] != 1:
            raise InvariantError("the bit at m_star must be 1")
        if not self.truncated and self.last_index > 0 and self.bits[-1] != 1:
            raise InvariantError("a finite sequence cannot end in 0")

    @property
    def last_index(self) -> int:
        return self.m_star + len(self.bits) - 1

    @property
    def nonzero_indices(self) -> tuple[int, ...]:
        return tuple(
            self.m_star + i for i, b in enumerate(self.bits) if b
        )

    def bit(self, k: int) -> int:
        if self.m_star <= k <= self.last_index:
            return self.bits[k - self.m_star]
        return 0

    def __str__(self) -> str:
        return print_sequence(self)


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Tolerances and caps for decode and encode."""

    tol_root: float = 1e-12
    tol_residual: float = 1e-12
    max_terms: int = 64
    max_index: int = 256

    def __post_init__(self):
        for tol in (self.tol_root, self.tol_residual):
            if not (0.0 < tol < math.inf):
                raise ConfigError("tolerances must be finite and positive")
        if self.max_terms < 1 or self.max_index < 1:
            raise ConfigError("caps must be at least 1")


DEFAULT_CONFIG = SolverConfig()


def iterate_level(t: float, k: int) -> float:
    """u_k(t): k-fold 2^v - 1 for k > 0, |k|-fold log2(v + 1) for k < 0.

    The two maps are mutual inverses on [0,1] with fixed points 0 and 1.
    The iteration stops once it reaches a fixed point, so any integer k
    costs bounded work; t outside [0,1] or a k that is not an integer
    (2.5, inf, nan) raises RangeError.
    """
    if not (0.0 <= t <= 1.0):
        raise RangeError(f"t must be in [0,1], got {t!r}")
    try:
        level = int(k)
    except (TypeError, ValueError, OverflowError):
        level = None
    if level is None or level != k:
        raise RangeError(f"k must be an integer, got {k!r}")
    return level_value(float(t), level)


def sequence_to_universe(a: BinarySequence, atom: str = "x") -> list[SetExpr]:
    """The classical universe the sequence selects: {atom}^(k) per 1-bit."""
    AtomUniverse((atom,))  # validates the name
    return [Braced(atom, k) for k in a.nonzero_indices]


def series_cardinality(a: BinarySequence, t: float) -> float:
    """G(t): the sum of u_k(t) over the stored 1-bits."""
    if not (0.0 <= t <= 1.0):
        raise RangeError(f"t must be in [0,1], got {t!r}")
    return series_value(a.m_star, a.bits, float(t))


def decode(a: BinarySequence, cfg: SolverConfig = DEFAULT_CONFIG) -> float:
    """The unique w in (0,1] with G(w) = 1, to cfg.tol_root.

    The single-bit sequence (|) decodes to exactly 1. For a truncated
    sequence this is the root of the stored prefix, an upper bound on
    the value of the full expansion.
    """
    ones = sum(a.bits)
    if ones == 1:
        return 1.0
    if ones == 0:  # G(1) counts the 1-bits
        raise ConfigError("series cannot reach 1; corrupted sequence")
    return series_root(a.m_star, a.bits, cfg.tol_root)


def encode(w: float, cfg: SolverConfig = DEFAULT_CONFIG) -> BinarySequence:
    """Greedy binary expansion of w in (0, 1].

    truncated=False means the residual |G(w) - 1| met cfg.tol_residual;
    truncated=True means cfg.max_terms bits were spent first. Raises
    RangeError for w outside (0,1] and IndexCapExceededError when the
    level search passes cfg.max_index (w pathologically near 0).
    """
    if not (0.0 < w <= 1.0):
        raise RangeError(f"w must be in (0,1], got {w!r}")
    m_star, bits, truncated, _ = greedy_encode(
        float(w), cfg.tol_residual, cfg.max_terms, cfg.max_index
    )
    return BinarySequence(m_star, tuple(bits), truncated)


def expand_to_fuzzy(
    a: BinarySequence, atom: str = "x", cfg: SolverConfig = DEFAULT_CONFIG
) -> FuzzySet:
    """The fuzzy set the sequence encodes: u_k(decode(a)) at {atom}^(k).

    Its scalar cardinality is 1 up to the solver tolerances (exactly the
    defining property of the decoded membership value).
    """
    universe = AtomUniverse((atom,))  # validates the name before solving
    w = decode(a, cfg)
    indices = a.nonzero_indices
    zero = indices.index(0)
    levels = [w] * len(indices)
    # each level steps from its neighbour nearer index 0, not from w; the
    # maps are deterministic, so the values are those of level_value(w, k)
    for i in range(zero + 1, len(indices)):
        levels[i] = level_value(levels[i - 1], indices[i] - indices[i - 1])
    for i in range(zero - 1, -1, -1):
        levels[i] = level_value(levels[i + 1], indices[i] - indices[i + 1])
    pairs = tuple((Braced(atom, k), u) for k, u in zip(indices, levels))
    return FuzzySet(universe, pairs)


# ------------------------------------------------------------------ text


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


def print_sequence(a: BinarySequence) -> str:
    """Inverse of parse_sequence; no separators, ellipsis when truncated."""
    zero_pos = -a.m_star
    left = "".join(str(b) for b in a.bits[:zero_pos])
    right = "".join(str(b) for b in a.bits[zero_pos + 1 :])
    return left + "|" + right + (_ELLIPSIS if a.truncated else "")


# ------------------------------------------------------------------ JSON


def sequence_to_json(a: BinarySequence) -> str:
    return json.dumps(
        {"m_star": a.m_star, "bits": list(a.bits), "truncated": a.truncated},
        separators=(",", ":"),
    )


def sequence_from_json(text: str) -> BinarySequence:
    """Read the {"m_star":...,"bits":[...],"truncated":...} form.

    Extra keys are ignored, so the CLI's enriched encode output feeds
    straight back in. truncated defaults to false.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        offset = len(text[: ex.pos].encode("utf-8")) if ex.pos is not None else 0
        raise ParseError(f"invalid JSON: {ex.msg}", offset) from None
    if not isinstance(doc, dict):
        raise ParseError("sequence JSON must be an object", 0)
    if "m_star" not in doc or "bits" not in doc:
        raise ParseError('sequence JSON needs "m_star" and "bits"', 0)
    m_star = doc["m_star"]
    bits = doc["bits"]
    truncated = doc.get("truncated", False)
    if not isinstance(m_star, int) or isinstance(m_star, bool):
        raise ParseError('"m_star" must be an integer', 0)
    if not isinstance(bits, list) or not all(
        isinstance(b, int) and not isinstance(b, bool) for b in bits
    ):
        raise ParseError('"bits" must be a list of integers', 0)
    if not isinstance(truncated, bool):
        raise ParseError('"truncated" must be a boolean', 0)
    return BinarySequence(m_star, tuple(bits), truncated)
