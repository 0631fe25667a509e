"""The numeric kernels against the algorithms they replaced (frozen in
legacy_kernels.py).

``level_value`` and ``series_value`` keep their arithmetic, so they must
agree bit for bit. ``series_root`` changed from bisection to safeguarded
Newton, so its root must lie within ``tol_root`` of the bisection root
and solve the series. Its fallback then learned to halve wide brackets
in exponent, so its root must also lie within ``tol_root`` of the
frozen Newton solver's, in fewer series evaluations for small roots and
no more for the others. Inputs are seeded: a grid of (t, k), random
(t, k), sequences from ``encode`` over values down to 1e-9 and, for
small roots, log-spread down to 1e-19, sequences with one deep bit, and
random sequences of up to 366 bits; m_star reaches below -100 and the
right parts run past level 250.
"""

import json
import math
import random

import pytest

from fuzznest import (
    BinarySequence,
    FuzzySet,
    IndexCapExceededError,
    SolverConfig,
    decode,
    encode,
    fuzzyset_to_json,
    iterate_level,
    parse_sequence,
    series_cardinality,
)
from fuzznest import _kernels
from fuzznest.cli import main

import legacy_kernels as legacy


def _encoded_sequences(count: int, seed: int) -> list[BinarySequence]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        roll = rng.random()
        if roll < 0.2:
            w = 10.0 ** rng.uniform(-9, -1)
        elif roll < 0.3:
            w = 1.0 - 10.0 ** rng.uniform(-12, -1)
        else:
            w = rng.random()
        if w <= 0.0:
            continue
        cfg = SolverConfig(max_terms=rng.randint(2, 80), max_index=2000)
        out.append(encode(w, cfg))
    return out


def _random_sequences(count: int, seed: int) -> list[BinarySequence]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        density = rng.choice((0.02, 0.1, 0.5))
        left = [rng.random() < density for _ in range(rng.randint(0, 63))]
        right = [rng.random() < density for _ in range(rng.randint(0, 300))]
        bits = ([1] + left if left else []) + [1] + right + [1]
        out.append(BinarySequence(-len(left) - 1 if left else 0, tuple(bits)))
    return out


def _small_root_sequences(count: int, seed: int) -> list[BinarySequence]:
    # encoder outputs for w log-spread over [1e-19, 0.05], as in the codec
    # benchmark's small quarter; below about 4e-16 encode passes its index
    # cap, and those values are skipped
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            out.append(encode(10.0 ** rng.uniform(-19, math.log10(0.05))))
        except IndexCapExceededError:
            pass
    return out


def _deep_bit(n: int) -> BinarySequence:
    """One bit at -n plus the bit at 0."""
    return BinarySequence(-n, (1,) + (0,) * (n - 1) + (1,))


ENCODED = _encoded_sequences(500, seed=20240501)
SEQUENCES = ENCODED + _random_sequences(100, seed=5)
DEEP = [_deep_bit(n) for n in (30, 60, 100, 150)]
SMALL_ROOTS = _small_root_sequences(300, seed=20240601) + DEEP


def test_sequences_cover_deep_and_long_cases():
    assert min(s.m_star for s in ENCODED) <= -100
    assert max(s.last_index for s in SEQUENCES) >= 250
    assert sum(s.truncated for s in SEQUENCES) >= 50


# ------------------------------------------------------------- level maps


def test_level_value_matches_on_grid():
    for i in range(65):
        t = i / 64.0
        for k in range(-300, 301):
            got = _kernels.level_value(t, k)
            assert float.hex(got) == float.hex(legacy.level_value(t, k)), (t, k)


def test_level_value_matches_on_random_levels():
    rng = random.Random(7)
    for _ in range(2000):
        t = rng.random() if rng.random() < 0.8 else 10.0 ** rng.uniform(-320, 0)
        k = rng.randint(-5000, 5000)
        got = _kernels.level_value(t, k)
        assert float.hex(got) == float.hex(legacy.level_value(t, k)), (t, k)


@pytest.mark.parametrize("sign", [1, -1])
def test_huge_level_equals_the_settled_level(sign):
    # the iterates settle within a few hundred steps, so level 10**7 is
    # the value all 10**4 steps of the reference give
    want = legacy.level_value(0.37, sign * 10**4)
    assert float.hex(iterate_level(0.37, sign * 10**7)) == float.hex(want)


def test_propagate_huge_level_exits_zero(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(fuzzyset_to_json(FuzzySet.flat([("x1", 0.37)])), encoding="utf-8")
    code = main(["propagate", str(base), "{x1}^(100000000)", "--json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    mu = json.loads(captured.out)["elements"][0]["mu"]
    assert float.hex(mu) == float.hex(legacy.level_value(0.37, 10**4))


# ----------------------------------------------------------------- series


def test_series_value_matches():
    rng = random.Random(11)
    for seq in SEQUENCES:
        for t in (0.0, 1.0, rng.random(), 10.0 ** rng.uniform(-12, 0)):
            want = legacy.series_value(seq.m_star, seq.bits, t)
            assert float.hex(series_cardinality(seq, t)) == float.hex(want)
            got = _kernels.series_value(seq.m_star, list(seq.bits), t)
            assert float.hex(got) == float.hex(want)


def test_series_slope_matches_difference_quotient():
    for text in ("10|01", "|01001", "1101|0111", "|" + "0" * 30 + "1"):
        seq = parse_sequence(text)
        for t in (0.1, 0.3, 0.6, 0.9):
            h = 1e-6
            up = _kernels.series_value(seq.m_star, seq.bits, t + h)
            down = _kernels.series_value(seq.m_star, seq.bits, t - h)
            value, slope = _kernels._series(seq.m_star, seq.bits, t)
            assert value == _kernels.series_value(seq.m_star, seq.bits, t)
            assert abs(slope - (up - down) / (2 * h)) <= 1e-6 * slope, (text, t)


# ------------------------------------------------------------------- root


def test_small_root_sequences_have_small_roots():
    roots = [decode(seq) for seq in SMALL_ROOTS]
    assert max(roots) < 0.06 and min(roots) < 1e-13


@pytest.mark.parametrize("tol_root", [1e-4, 1e-8, 1e-12])
def test_series_root_within_tolerance_of_bisection(tol_root):
    for seq in SEQUENCES + SMALL_ROOTS:
        got = _kernels.series_root(seq.m_star, seq.bits, tol_root)
        want = legacy.series_root(seq.m_star, seq.bits, tol_root)
        assert abs(got - want) <= tol_root, (str(seq), got, want)


@pytest.mark.parametrize("tol_root", [1e-4, 1e-8, 1e-12])
def test_series_root_within_tolerance_of_frozen_newton(tol_root):
    for seq in SEQUENCES + SMALL_ROOTS:
        got = _kernels.series_root(seq.m_star, seq.bits, tol_root)
        want = legacy.newton_series_root(seq.m_star, seq.bits, tol_root)
        assert abs(got - want) <= tol_root, (str(seq), got, want)


def _counted_series(monkeypatch, module) -> list:
    calls = []
    series = module._series

    def counted(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(module, "_series", counted)
    return calls


def test_small_roots_take_few_series_evaluations(monkeypatch):
    new_calls = _counted_series(monkeypatch, _kernels)
    frozen_calls = _counted_series(monkeypatch, legacy)

    def evaluations(solve, calls, seq):
        calls.clear()
        solve(seq.m_star, seq.bits, 1e-12)
        return len(calls)

    def new(seq):
        return evaluations(_kernels.series_root, new_calls, seq)

    deep = [new(seq) for seq in DEEP]
    assert max(deep) <= 16, deep
    small = [new(seq) for seq in SMALL_ROOTS[: -len(DEEP)]]
    assert sum(small) / len(small) <= 10.0, sum(small) / len(small)
    rng = random.Random(20240602)
    for _ in range(300):
        seq = encode(0.05 + 0.95 * rng.random())
        frozen = evaluations(legacy.newton_series_root, frozen_calls, seq)
        assert new(seq) <= frozen, str(seq)


def test_decode_solves_the_series():
    # tol_root bounds the root, not G: where G is steep (dense bits below
    # index 0) G(w) may miss 1 by tol_root * G', so this takes the
    # encoded sequences, whose G' at the root stays moderate
    for seq in ENCODED:
        w = decode(seq)
        assert 0.0 < w <= 1.0
        assert abs(series_cardinality(seq, w) - 1.0) <= 1e-11, str(seq)


@pytest.mark.parametrize(
    "m_star,bits",
    [
        # steep near t = 1: u_200 jumps from about 0 to 1 there
        (0, (1,) + (0,) * 199 + (1,)),
        (0, (1,) + (0,) * 250 + (1,) * 5),
        # far below index 0 the walk up from m_star loses the digits of
        # t; the computed series is no longer monotone
        (-100, (1,) + (0,) * 99 + (1,)),
        (-199, (1,) + (0,) * 198 + (1,)),
        (-800, (1,) + (0,) * 799 + (1, 1)),
        (-3000, (1,) + (0,) * 2999 + (1,)),
        # every bit set
        (0, (1,) * 64),
        (-5, (1,) * 6),
    ],
)
@pytest.mark.parametrize("tol_root", [1e-4, 1e-12])
def test_series_root_on_steep_and_deep_sequences(m_star, bits, tol_root):
    got = _kernels.series_root(m_star, bits, tol_root)
    want = legacy.series_root(m_star, bits, tol_root)
    assert 0.0 < got <= 1.0
    assert abs(got - want) <= tol_root


@pytest.mark.parametrize("tol_root", [5e-324, 1e-300])
def test_decode_returns_at_tiny_tolerances(tol_root):
    cfg = SolverConfig(tol_root=tol_root)
    seqs = ENCODED[:100] + [
        parse_sequence("10|01"),
        parse_sequence("|" + "0" * 199 + "1"),
        BinarySequence(-800, (1,) + (0,) * 799 + (1, 1)),
    ]
    for seq in seqs:
        w = decode(seq, cfg)
        assert 0.0 < w <= 1.0
        assert abs(w - legacy.series_root(seq.m_star, seq.bits, tol_root)) <= 1e-15
    for seq in ENCODED[:100]:
        w = decode(seq, cfg)
        assert abs(series_cardinality(seq, w) - 1.0) <= 1e-11, str(seq)
