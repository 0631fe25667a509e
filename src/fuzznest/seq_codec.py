"""Binary sequences and the membership codec.

A sequence assigns bits a_k to integer indices k, starting at m_star <= 0
and extending finitely to the right. The bit at index 0 is always 1 and
is written as a vertical bar in text form, so "10|01" holds 1-bits at
indices -2, 0, 2. A sequence selects the universe {x}^(k) for its 1-bits,
and its cardinality series G(t) = sum of u_k(t) over 1-bits is strictly
increasing with G(0) = 0, so G(t) = 1 has exactly one root in (0, 1].
A sequence's text is read as tokens of one regular expression: a run of
bits with any separators inside or after it, matched as one character
class, "...", or any other character.

decode finds that root by safeguarded Newton: Newton steps kept inside
a shrinking bracket, which otherwise bisects, in exponent while it spans
more than a factor of 2 and arithmetically after that, so a root far
below 0.5 costs a few more series evaluations than one near it rather
than one more per binade. Each sequence keeps its root with the
tolerance it was solved to, so decoding it again, or expanding it after
decoding, does not solve again. encode inverts it greedily, picking
ever-higher levels whose contribution keeps the partial series at w
below 1, until the residual drops under tol_residual or max_terms bits
are spent (the truncated flag records which).

Outside the series kernel, per-bit work is one C-level call each:
bytes() converts the bits, bytes.translate checks that each is 0 or 1
and prints them, and itertools.compress lists the indices of the 1-bits
and picks their levels. expand_to_fuzzy walks each of w's two ladders
once, to the lowest and the highest 1-bit, and reads the levels off
them.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field
from itertools import compress, repeat

from ._kernels import _climb, _series, greedy_encode, level_value, series_root
from .errors import ConfigError, InvariantError, ParseError, RangeError, _shown
from .fuzzy_core import FuzzySet, _is_number, _load_object
from .set_expr import AtomUniverse, Braced, SetExpr, _braced_text, _byte_offset

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
# after any separators: a run of bits with the separators inside and after
# it, "...", or any other character
_SEQ_TOKEN = re.compile(r"[ \t\r\n,]*([01][01 \t\r\n,]*|\.\.\.|[^ \t\r\n,])")
_BITS = str.maketrans("01", "\0\1", " \t\r\n,")  # bits to bytes 0, 1; no separators
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # bytes 0, 1 back to bits


@dataclass(frozen=True, slots=True)
class BinarySequence:
    """Bits a_k for k = m_star .. m_star + len(bits) - 1.

    Invariants: m_star <= 0; the bit at index 0 is 1; if m_star < 0 the
    first bit is 1; a non-truncated sequence never ends in 0 (so finite
    sequences have one canonical form). truncated marks a prefix of a
    longer expansion, where trailing zeros are meaningful. m_star is an
    int and truncated a bool (neither a bool nor an int stand in for the
    other), so every sequence survives a JSON round trip.

    ``_root`` holds (tol_root, root) from the last decode; only decode
    sets it. It is a cache and takes no part in ==, hash, repr or
    pickling, and dataclasses.replace returns a copy without it.
    """

    m_star: int
    bits: tuple[int, ...]
    truncated: bool = False
    _root: tuple[float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        try:
            raw = _bit_bytes(self.bits)
        except TypeError:
            raise InvariantError("bits must be 0 or 1") from None
        if not _is_number(self.m_star, int):
            raise InvariantError("m_star must be an integer")
        if not isinstance(self.truncated, bool):
            raise InvariantError("truncated must be a boolean")
        if self.m_star > 0:
            raise InvariantError("m_star must be <= 0")
        if raw is None or raw.translate(None, b"\0\1"):  # empty bits pass, named next
            raise InvariantError("bits must be 0 or 1")
        if not raw:
            raise InvariantError("bits must be non-empty")
        object.__setattr__(self, "bits", tuple(raw))
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
        start = self.m_star
        return tuple(compress(range(start, start + len(self.bits)), self.bits))

    def __reduce__(self):
        return (BinarySequence, (self.m_star, self.bits, self.truncated))

    def bit(self, k: int) -> int:
        if self.m_star <= k <= self.last_index:
            return self.bits[k - self.m_star]
        return 0

    def __str__(self) -> str:
        return print_sequence(self)


def _bit_bytes(bits) -> bytes | None:
    """The bits as bytes in one C-level conversion, or None when one is an
    int outside 0..255. A bit that operator.index refuses raises
    TypeError wherever it stands, so a second pass looks for one past
    such an int."""
    try:
        return bytes(iter(bits))  # iter: neither an int nor a buffer is bits
    except ValueError:
        tuple(map(operator.index, bits))
        return None


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Tolerances and caps for decode and encode."""

    tol_root: float = 1e-12
    tol_residual: float = 1e-12
    max_terms: int = 64
    max_index: int = 256

    def __post_init__(self):
        for tol in (self.tol_root, self.tol_residual):
            if not (_is_number(tol, (int, float)) and 0.0 < tol < math.inf):
                raise ConfigError("tolerances must be finite and positive")
        for cap in (self.max_terms, self.max_index):
            if not (_is_number(cap, int) and cap >= 1):
                raise ConfigError("caps must be integers, at least 1")


DEFAULT_CONFIG = SolverConfig()

_X = AtomUniverse(("x",))  # the codec's one-atom universe


def iterate_level(t: float, k: int) -> float:
    """u_k(t): k-fold 2^v - 1 for k > 0, |k|-fold log2(v + 1) for k < 0.

    The two maps are mutual inverses on [0,1] with fixed points 0 and 1.
    The walk stops where a step returns its input, which need not be a
    fixed point (see _kernels._climb), so any integer k costs bounded
    work. A t that is not a number in [0,1] or a k that is not an
    integer (2.5, inf, nan, "2") raises RangeError; a bool is neither,
    and an integral float k such as 2.0 is an integer.
    """
    if not (_is_number(t, (int, float)) and 0.0 <= t <= 1.0):
        raise RangeError(f"t must be in [0,1], got {_shown(t)}")
    try:
        level = int(k) if _is_number(k, (int, float)) else None
    except (ValueError, OverflowError):
        level = None
    if level is None or level != k:
        raise RangeError(f"k must be an integer, got {_shown(k)}")
    return level_value(float(t), level)


def sequence_to_universe(a: BinarySequence) -> list[SetExpr]:
    """The classical universe the sequence selects: {x}^(k) per 1-bit."""
    return [Braced("x", k) for k in a.nonzero_indices]


def series_cardinality(a: BinarySequence, t: float) -> float:
    """G(t): the sum of u_k(t) over the stored 1-bits; t a number in [0,1]."""
    if not (_is_number(t, (int, float)) and 0.0 <= t <= 1.0):
        raise RangeError(f"t must be in [0,1], got {_shown(t)}")
    return _series(a.m_star, a.bits, float(t))[0]


def decode(a: BinarySequence, cfg: SolverConfig = DEFAULT_CONFIG) -> float:
    """The unique w in (0,1] with G(w) = 1, to cfg.tol_root.

    The single-bit sequence (|) decodes to exactly 1. For a truncated
    sequence this is the root of the stored prefix, an upper bound on
    the value of the full expansion. The sequence keeps the root of its
    last solve with its tolerance, so a second call with an equal
    cfg.tol_root (expand_to_fuzzy's, say) returns it without solving.
    """
    tol = cfg.tol_root
    memo = a._root
    if memo is not None and memo[0] == tol:
        return memo[1]
    root = series_root(a.m_star, a.bits, tol)
    object.__setattr__(a, "_root", (tol, root))
    return root


def encode(w: float, cfg: SolverConfig = DEFAULT_CONFIG) -> BinarySequence:
    """Greedy binary expansion of w in (0, 1].

    truncated=False means the residual |G(w) - 1| met cfg.tol_residual;
    truncated=True means cfg.max_terms bits were spent first. Raises
    RangeError for a w that is not a number in (0,1] (a bool is not a
    number here) and IndexCapExceededError when the level search passes
    cfg.max_index (w pathologically near 0).
    """
    if not (_is_number(w, (int, float)) and 0.0 < w <= 1.0):
        raise RangeError(f"w must be in (0,1], got {_shown(w)}")
    m_star, bits, truncated, _ = greedy_encode(
        float(w), cfg.tol_residual, cfg.max_terms, cfg.max_index
    )
    return BinarySequence(m_star, bits, truncated)


def expand_to_fuzzy(a: BinarySequence, cfg: SolverConfig = DEFAULT_CONFIG) -> FuzzySet:
    """The fuzzy set the sequence encodes: u_k(decode(a)) at {x}^(k),
    over the universe {x}.

    Its scalar cardinality is 1 up to the solver tolerances (exactly the
    defining property of the decoded membership value). w comes from
    decode(a, cfg), so decoding and then expanding one sequence object
    solves once.
    """
    w = decode(a, cfg)
    ks = a.nonzero_indices
    # w's two ladders, each walked once: down to the lowest 1-bit (m_star)
    # and up to the highest; a ladder that stalled is padded with its last
    # rung, which stands for every higher level
    down, up = [w], [w]
    _climb(down, ks[0])
    _climb(up, ks[-1])
    down += [down[-1]] * (1 - ks[0] - len(down))
    up += [up[-1]] * (1 + ks[-1] - len(up))
    levels = compress(down[:0:-1] + up, a.bits)  # u_k(w) for k = m_star ..
    texts = tuple(map(_braced_text, repeat("x"), ks))
    return FuzzySet(_X, texts, tuple(levels))


# ------------------------------------------------------------------ text


def parse_sequence(text: str) -> BinarySequence:
    """Parse text like "10|01", "(1,0|1,0,1,1)", or "|0100…".

    The bar is the mandatory 1-bit at index 0; bits left of it run up to
    index -1, bits right of it from index 1. Commas, spaces, tabs, CR
    and LF are ignored, one pair of surrounding parentheses is allowed,
    and a trailing ellipsis ("…" or "...") marks the sequence truncated.
    Tokens are bit runs (separators allowed inside), "..." and single
    characters; each side of the bar holds at most one run.
    """
    tokens = _SEQ_TOKEN.findall(text)
    runs = ["", ""]  # the bits left and right of the bar, as "\0" and "\1"
    side = 0
    opened = closed = truncated = False
    for i, tok in enumerate(tokens):
        if closed:
            raise _sequence_error(text, i, "unexpected input after ')'")
        if truncated and tok != ")":
            raise _sequence_error(text, i, "unexpected input after the ellipsis")
        if tok == "(":
            if i:  # after a bit or the bar
                raise _sequence_error(text, i, "unexpected '('")
            opened = True
        elif tok == ")":
            if not opened:
                raise _sequence_error(text, i, "unexpected ')'")
            closed = True
        elif tok == "..." or tok == _ELLIPSIS:
            truncated = True
        elif tok == "|":
            if side:
                raise _sequence_error(text, i, "second '|' marker")
            side = 1
        elif tok[0] in "01":
            runs[side] = tok.translate(_BITS)
        elif tok == ".":
            raise _sequence_error(text, i, "stray '.'")
        else:
            raise _sequence_error(text, i, f"unexpected character {tok!r}")
    if opened and not closed:
        raise _sequence_error(text, len(tokens), "missing ')'")
    if not side:
        raise _sequence_error(text, len(tokens), "missing '|' marker")
    left, right = runs
    if left[:1] == "\0":
        raise InvariantError("the leftmost bit of the left part must be 1")
    return BinarySequence(-len(left), (left + "\1" + right).encode(), truncated)


def _sequence_error(text: str, token: int, message: str) -> ParseError:
    """ParseError at a token's UTF-8 offset, or at the end past the last."""
    return ParseError(message, _byte_offset(_SEQ_TOKEN, text, token))


def print_sequence(a: BinarySequence) -> str:
    """Inverse of parse_sequence; no separators, ellipsis when truncated."""
    zero_pos = -a.m_star
    digits = bytes(a.bits).translate(_DIGITS).decode()
    return (
        digits[:zero_pos] + "|" + digits[zero_pos + 1 :]
        + (_ELLIPSIS if a.truncated else "")
    )


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
    doc = _load_object(text, "sequence")
    if "m_star" not in doc or "bits" not in doc:
        raise ParseError('sequence JSON needs "m_star" and "bits"', 0)
    m_star = doc["m_star"]
    bits = doc["bits"]
    truncated = doc.get("truncated", False)
    if not _is_number(m_star, int):
        raise ParseError('"m_star" must be an integer', 0)
    # json.loads yields exact built-in types, so this refuses bools too
    if not isinstance(bits, list) or not {int}.issuperset(map(type, bits)):
        raise ParseError('"bits" must be a list of integers', 0)
    if not isinstance(truncated, bool):
        raise ParseError('"truncated" must be a boolean', 0)
    return BinarySequence(m_star, bits, truncated)
