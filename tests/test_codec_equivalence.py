"""The token-loop sequence parser and the encoder's single upward search
against the character loop and the two searches they replaced, and
BinarySequence's validation, nonzero_indices and print_sequence against
their per-bit loops (all frozen in legacy_codec.py).

Seeded random texts and encoder inputs: results must be equal with
``==``, and failures must raise the same exception class with the same
message (and, for ParseError, the same byte offset). The encoder's walk
down and its upward search must also stop where a step returns its input,
which the frozen copy does not.
"""

import math
import random

import pytest

from fuzznest import (
    BinarySequence,
    IndexCapExceededError,
    InvariantError,
    SolverConfig,
    encode,
    parse_sequence,
    print_sequence,
)
from fuzznest import _kernels
from fuzznest._kernels import _series, greedy_encode
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
    # the series value once returned 0.0 at t = 0 and the number of 1-bits at
    # t = 1 without walking the bits; the walk gives the same floats
    rng = random.Random(99)
    for _ in range(3000):
        m_star = -rng.randint(0, 40)
        left = [rng.randint(0, 1) for _ in range(-m_star)]
        right = [rng.randint(0, 1) for _ in range(rng.randint(0, 60))]
        bits = [1, *left[1:], 1, *right] if m_star else [1, *right]
        for t in (0.0, -0.0):
            value = _series(m_star, bits, t)[0]
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
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


def test_cli_encode_upward_search_stops_at_a_stall(capsys, monkeypatch):
    # _up stalls at 2^-52 with the residual between -2^-52 and -tol, where
    # s + v <= 0 can never hold again: the search must raise there, not
    # step on to max_index; past 1000 calls the stub fails instead of
    # letting such a walk hang
    calls = []
    up = _kernels._up

    def counted(v):
        calls.append(v)
        if len(calls) >= 1000:
            raise RuntimeError("_up called 1000 times")
        return up(v)

    monkeypatch.setattr(_kernels, "_up", counted)
    cap = 10**18
    argv = ["encode", "0.01826899859912764", "--tol", "1e-16", "--max-terms", "400"]
    code = main(argv + ["--max-index", str(cap)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: index search passed {cap}\n"
    assert 0 < len(calls) < 1000


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


# long bit runs with separators before, inside and after them, around the
# grammar's other tokens; a few texts get one character of ALPHABET
_SEPARATORS = [" ", ",", "\t", "\r", "\n", ", ", ",,", " \n "]


def _separated(rng: random.Random, run: str) -> str:
    parts = [rng.choice(_SEPARATORS) if rng.random() < 0.5 else ""]
    for bit in run:
        parts.append(bit)
        if rng.random() < 0.3:
            parts.append(rng.choice(_SEPARATORS))
    return "".join(parts)


def _long_run_text(rng: random.Random) -> str:
    left = "".join(rng.choice("01") for _ in range(rng.randint(0, 150)))
    right = "".join(rng.choice("01") for _ in range(rng.randint(0, 150)))
    if left and rng.random() < 0.8:
        left = "1" + left[1:]
    text = _separated(rng, left) + "|" + _separated(rng, right)
    text += rng.choice(["", "", "...", "…", " ...", "1", "|", ". .", "x"])
    if rng.random() < 0.3:
        text = rng.choice(["(", "( ", ",("]) + text + rng.choice([")", " )", ""])
    if rng.random() < 0.2:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(ALPHABET) + text[at:]
    return text


def test_parse_sequence_matches_character_loop_on_long_runs():
    rng = random.Random(20261019)
    kinds = {"ok": 0, "ParseError": 0, "InvariantError": 0}
    longest = 0
    for _ in range(4000):
        text = _long_run_text(rng)
        want = _outcome(legacy.parse_sequence, text)
        assert _outcome(parse_sequence, text) == want, text
        kinds["ok" if want[0] == "ok" else want[0].__name__] += 1
        if want[0] == "ok":
            longest = max(longest, len(want[1].bits))
    assert all(count > 100 for count in kinds.values()), kinds
    assert longest > 250


# an int out of the byte range, or past any fixed-width int, among bits
# that may hold a value operator.index refuses before or after it
@pytest.mark.parametrize("bad", [-1, 256, 2**70])
def test_out_of_range_bits_report_where_the_per_bit_loop_did(bad):
    bit_rows = [
        (bad,), (1, bad), (bad, 1, 1), (1, 0, bad, 1), (1, bad, 0),
        (1, bad, "x"), ("x", bad), (bad, 0.5, 1), (1, bad, None, bad),
    ]
    cases = 0
    for bits in bit_rows:
        for m_star in (0, -1, -2, 1, 3, 0.0, -1.0):
            for truncated in (False, True):
                case = (m_star, bits, truncated)
                want = _outcome(legacy.check_sequence, *case)
                assert _outcome(_checked_bits, *case) == want, case
                # a one-shot iterator is read on from where bytes() stopped
                once = (m_star, iter(bits), truncated)
                assert _outcome(_checked_bits, *once) == want, case
                cases += 1
    assert cases == 9 * 7 * 2


@pytest.mark.parametrize(
    "m_star, bits, truncated, message",
    [
        (0, (1, 256), "yes", "truncated must be a boolean"),
        (2, (-1,), None, "truncated must be a boolean"),
        (0, (1, 2**70, 0), 1, "truncated must be a boolean"),
        (1.5, (1, 256), "yes", "m_star must be an integer"),
        (True, (-1, 1), False, "m_star must be an integer"),
        (0, (256, "x"), 1, "bits must be 0 or 1"),
        (1.5, (1, -1, 1.0), "yes", "bits must be 0 or 1"),
        (3, (1, 256), False, "m_star must be <= 0"),
    ],
)
def test_out_of_range_bits_keep_the_check_order(m_star, bits, truncated, message):
    # legacy's loop checks neither bool m_star nor truncated's type; the
    # sequence checks them after the bits' types, before their range
    with pytest.raises(InvariantError) as exc:
        BinarySequence(m_star, bits, truncated)
    assert str(exc.value) == message
