"""The token-loop sequence parser and the encoder's single upward search
against the character loop and the two searches they replaced, and
BinarySequence's validation, nonzero_indices and print_sequence against
their per-bit loops (all frozen in legacy_codec.py).

Seeded random texts and encoder inputs: results must be equal with
``==``, and failures must raise the same exception class with the same
message (and, for ParseError, the same byte offset). The encoder's walk
down must also stop at a fixed point, which the frozen copy does not.
"""

import math
import random

import pytest

from fuzznest import (
    BinarySequence,
    IndexCapExceededError,
    SolverConfig,
    encode,
    parse_sequence,
    print_sequence,
)
from fuzznest import _kernels
from fuzznest._kernels import _series, greedy_encode, series_value
from fuzznest.cli import main

import legacy_codec as legacy

# separators, the grammar's characters, both ellipses, a form feed and a
# no-break space (whitespace to str.isspace, not separators here), and
# multi-byte characters, so that byte offsets differ from indices
ALPHABET = list("01|(),. \t\r\n")
ALPHABET += ["11", "0", "...", "…", "é", "x", "\x0c", "\xa0", "𝟙"]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _random_text(rng: random.Random) -> str:
    text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 14)))
    if rng.random() < 0.3:
        # a well-formed sequence, often with a multi-byte prefix or tail
        bits = "".join(rng.choice("01 ,") for _ in range(rng.randint(0, 8)))
        text = rng.choice(["", "é", "…"]) + "1" + bits + "|" + bits + text[:2]
    return text


def test_parse_sequence_matches_character_loop():
    rng = random.Random(20260901)
    kinds = {"ok": 0, "ParseError": 0, "InvariantError": 0}
    for _ in range(20000):
        text = _random_text(rng)
        want = _outcome(legacy.parse_sequence, text)
        got = _outcome(parse_sequence, text)
        assert got == want, text
        kinds["ok" if want[0] == "ok" else want[0].__name__] += 1
    # the sample reaches successes and both error classes
    assert all(count > 100 for count in kinds.values()), kinds


@pytest.mark.parametrize("separator", ["", ",", " ", ", \n"])
def test_parse_sequence_matches_on_encoder_outputs(separator):
    rng = random.Random(4242)
    for _ in range(500):
        w = rng.choice([rng.random(), rng.random() ** 8, 1.0 - rng.random() * 1e-6])
        seq = encode(w, SolverConfig(max_terms=rng.randint(1, 64)))
        text = separator.join(print_sequence(seq))
        if rng.random() < 0.5:
            text = "(" + text + ")"
        assert _outcome(parse_sequence, text) == _outcome(legacy.parse_sequence, text)
        assert parse_sequence(text) == seq


def _encoder_cases(rng: random.Random):
    for _ in range(4000):
        w = rng.choice(
            [
                rng.random(),
                10.0 ** -rng.uniform(0.0, 17.0),  # near 0, into the cap's range
                1.0 - 10.0 ** -rng.uniform(1.0, 16.0),  # near 1
                rng.choice([1.0, 0.5, 0.3, 0.8, 5e-324, 3.9e-16, 3.8e-16]),
            ]
        )
        tol = rng.choice([1e-12, 10.0 ** -rng.uniform(0.0, 17.0), 1e-300, 5e-324])
        max_terms = rng.choice([1, 2, 3, rng.randint(1, 80)])
        max_index = rng.choice([1, 2, 3, 5, 10, 32, 256, 2000])
        yield w, tol, max_terms, max_index


def test_greedy_encode_matches_two_searches():
    rng = random.Random(777)
    kinds = {"ok": 0, "initial -": 0, "initial +": 0, "later": 0}
    for case in _encoder_cases(rng):
        want = _outcome(legacy.greedy_encode, *case)
        got = _outcome(greedy_encode, *case)
        assert got == want, case
        if want[0] == "ok":
            kinds["ok"] += 1
        elif want[1].startswith("initial index search passed -"):
            kinds["initial -"] += 1
        elif want[1].startswith("initial"):
            kinds["initial +"] += 1
        else:
            kinds["later"] += 1
    # the sample reaches every outcome, each cap message included
    assert all(count > 0 for count in kinds.values()), kinds


def test_series_value_needs_no_endpoint_cases():
    # series_value once returned 0.0 at t = 0 and the number of 1-bits at
    # t = 1 without walking the bits; the walk gives the same floats
    rng = random.Random(99)
    for _ in range(3000):
        m_star = -rng.randint(0, 40)
        left = [rng.randint(0, 1) for _ in range(-m_star)]
        right = [rng.randint(0, 1) for _ in range(rng.randint(0, 60))]
        bits = [1, *left[1:], 1, *right] if m_star else [1, *right]
        for t in (0.0, -0.0):
            value = series_value(m_star, bits, t)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert series_value(m_star, bits, 1.0) == float(sum(bits))
        assert _series(m_star, bits, 1.0)[0] == float(sum(bits))


class _CountingMath:
    """The math module, but log2 fails once it has been called `limit`
    times, so that an unbounded walk fails instead of hanging."""

    def __init__(self, limit: int):
        self.calls = 0
        self.limit = limit

    def __getattr__(self, name):
        return getattr(math, name)

    def log2(self, x: float) -> float:
        self.calls += 1
        if self.calls > self.limit:
            raise RuntimeError(f"log2 called more than {self.limit} times")
        return math.log2(x)


@pytest.mark.parametrize("w", [1e-17, 1e-300, 3.8e-16])
def test_encode_walk_down_stops_at_a_fixed_point(w, monkeypatch):
    # below about 3.9e-16 the walk down settles on a float where its stop
    # test never holds; it must raise there, not after max_index steps
    stub = _CountingMath(10_000)
    monkeypatch.setattr(_kernels, "math", stub)
    cap = 10**18
    with pytest.raises(IndexCapExceededError) as exc:
        encode(w, SolverConfig(max_index=cap))
    assert str(exc.value) == f"initial index search passed -{cap}"
    assert stub.calls < 1000


def test_cli_encode_walk_down_stops_at_a_fixed_point(capsys, monkeypatch):
    stub = _CountingMath(10_000)
    monkeypatch.setattr(_kernels, "math", stub)
    code = main(["encode", "1e-17", "--max-index", "1000000000000000000"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: initial index search passed -1000000000000000000\n"
    )


# each character of a random text stands for one candidate bit: mostly
# bits and values operator.index takes (bools), and a few ints out of
# range and values it refuses (text, None)
_BIT_OF = {"0": 0, "1": 1, "|": 1, "(": 0, ")": 1, ",": True, " ": False}
_BIT_OF.update({".": 0, "\t": 1, "\r": 0, "\n": 1, "…": 1, "\x0c": 0})
_BIT_OF.update({"\xa0": 1, "é": 2, "𝟙": "1", "x": None})


def _checked_bits(m_star, bits, truncated):
    return BinarySequence(m_star, bits, truncated).bits


def test_sequence_checks_match_per_bit_loop():
    rng = random.Random(20260901)
    messages = {}
    for _ in range(20000):
        text = _random_text(rng)
        bits = tuple(_BIT_OF.get(ch, ch) for ch in text)
        m_star = rng.randint(-len(bits), 1)
        if rng.random() < 0.02:
            m_star = float(m_star)
        case = (m_star, bits, rng.random() < 0.3)
        want = _outcome(legacy.check_sequence, *case)
        got = _outcome(_checked_bits, *case)
        assert got == want, case
        key = "ok" if want[0] == "ok" else want[1]
        messages[key] = messages.get(key, 0) + 1
    # the sample reaches a success and every message
    assert len(messages) == 9 and min(messages.values()) > 100, messages


def _corpus_sequences():
    rng = random.Random(20260901)
    for _ in range(20000):
        outcome = _outcome(parse_sequence, _random_text(rng))
        if outcome[0] == "ok":
            yield outcome[1]
    rng = random.Random(777)
    for w, tol, max_terms, max_index in _encoder_cases(rng):
        outcome = _outcome(encode, w, SolverConfig(tol, tol, max_terms, max_index))
        if outcome[0] == "ok":
            yield outcome[1]


def test_print_and_indices_match_per_bit_loops():
    count = 0
    for seq in _corpus_sequences():
        assert print_sequence(seq) == legacy.print_sequence(seq), seq
        assert seq.nonzero_indices == legacy.nonzero_indices(seq), seq
        bits = seq.bits
        assert legacy.check_sequence(seq.m_star, bits, seq.truncated) == bits
        count += 1
    assert count > 2000
