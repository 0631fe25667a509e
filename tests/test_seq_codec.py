"""Binary sequences, level maps, series, decoding, and greedy encoding."""

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzznest import (
    DEFAULT_CONFIG,
    BinarySequence,
    Braced,
    ConfigError,
    IndexCapExceededError,
    InvariantError,
    ParseError,
    RangeError,
    SolverConfig,
    decode,
    encode,
    expand_to_fuzzy,
    iterate_level,
    parse_sequence,
    print_expr,
    print_sequence,
    scalar_cardinality,
    sequence_from_json,
    sequence_to_json,
    sequence_to_universe,
    series_cardinality,
)
from fuzznest import _kernels, seq_codec
from fuzznest._kernels import level_value
from oracle_mp import (
    EXPANSION_A,
    EXPANSION_B,
    GREEDY_03,
    GREEDY_08,
    ROOT_A,
    ROOT_B,
    U1_OF_HALF,
)

ROOT_TOL = 2e-12  # bisection to 1e-12 plus a couple of ulps
BAR = BinarySequence(0, (1,))


def random_sequence(rng: random.Random) -> BinarySequence:
    """A random valid non-truncated sequence with at most 16 one-bits."""
    m_star = -rng.randint(0, 6)
    left = [1] + [rng.randint(0, 1) for _ in range(-m_star - 1)] if m_star else []
    n = rng.randint(0, 8)
    right = [rng.randint(0, 1) for _ in range(n - 1)] + [1] if n else []
    return BinarySequence(m_star, tuple(left + [1] + right))


# -------------------------------------------------------------- sequences


def test_sequence_accessors():
    a = BinarySequence(-2, (1, 0, 1, 0, 1))
    assert a.last_index == 2
    assert a.nonzero_indices == (-2, 0, 2)
    assert a.bit(-2) == 1 and a.bit(-1) == 0 and a.bit(0) == 1
    assert a.bit(-3) == 0 and a.bit(99) == 0
    assert str(a) == "10|01"


@pytest.mark.parametrize(
    "m_star,bits",
    [
        (1, (1,)),  # positive start
        (0, ()),  # no bits
        (-2, (1, 0)),  # does not cover index 0
        (-1, (1, 0)),  # bit at index 0 is 0
        (-1, (0, 1)),  # bit at m_star is 0
        (0, (1, 1, 0)),  # trailing zero while not truncated
        (0, (1, 2)),  # non-binary digit
        (0, (1.5,)),  # not an integer, even though int() gives 1
        (-1, (1.9, 1)),
        (0, ("1",)),  # text digits are not bits
        (0, ("x",)),
        (0, (None,)),
    ],
)
def test_sequence_invariants(m_star, bits):
    with pytest.raises(InvariantError):
        BinarySequence(m_star, bits)


def test_sequence_trailing_zero_allowed_when_truncated():
    a = BinarySequence(0, (1, 1, 0), truncated=True)
    assert a.truncated
    assert print_sequence(a) == "|10…"


def test_sequence_m_star_must_be_int():
    with pytest.raises(InvariantError):
        BinarySequence(0.0, (1,))


@pytest.mark.parametrize(
    "m_star,bits,truncated",
    [
        (0, (1, 0), 1),  # the JSON writer would emit "truncated":1
        (0, (1,), 0),
        (0, (1,), None),
        (0, (1,), "yes"),
        (False, (1, 1), False),  # ... and "m_star":false
        (True, (1,), False),
    ],
)
def test_sequence_field_types(m_star, bits, truncated):
    with pytest.raises(InvariantError):
        BinarySequence(m_star, bits, truncated)


@settings(max_examples=300)
@given(
    st.one_of(st.integers(-3, 1), st.booleans()),
    st.lists(st.sampled_from([0, 1, True, False]), max_size=6),
    st.sampled_from([False, True, 0, 1, None]),
)
def test_every_accepted_sequence_survives_json(m_star, bits, truncated):
    try:
        a = BinarySequence(m_star, tuple(bits), truncated)
    except InvariantError:
        return
    assert sequence_from_json(sequence_to_json(a)) == a


# ---------------------------------------------------------------- parsing


def test_parse_sequence_reference_forms():
    a = parse_sequence("10|01")
    assert (a.m_star, a.bits, a.truncated) == (-2, (1, 0, 1, 0, 1), False)
    b = parse_sequence("|01001")
    assert (b.m_star, b.bits) == (0, (1, 0, 1, 0, 0, 1))
    bar = parse_sequence("|")
    assert (bar.m_star, bar.bits) == (0, (1,))
    grouped = parse_sequence("(1,0|1,0,1,1)")
    assert (grouped.m_star, grouped.bits) == (-2, (1, 0, 1, 1, 0, 1, 1))


def test_parse_sequence_separators_and_parens():
    assert parse_sequence(" 1 0 | 0 1 ") == parse_sequence("10|01")
    assert parse_sequence("(|)") == BAR
    assert parse_sequence("(10|01)") == parse_sequence("10|01")


def test_parse_sequence_ellipsis():
    a = parse_sequence("|0100…")
    assert a.truncated and a.bits == (1, 0, 1, 0, 0)
    b = parse_sequence("|01...")
    assert b.truncated and b.bits == (1, 0, 1)
    c = parse_sequence("(|01,0…)")
    assert c.truncated and c.bits == (1, 0, 1, 0)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "101",
        "1|0|1",
        "1a|0",
        "|0.1",
        "(|",
        ")|",
        "(|)x",
        "|01…1",
        "((|))",
    ],
)
def test_parse_sequence_errors(text):
    with pytest.raises(ParseError):
        parse_sequence(text)


def test_parse_sequence_leading_zero_left_part():
    with pytest.raises(InvariantError):
        parse_sequence("01|1")


def test_parse_sequence_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse_sequence("1a|0")
    assert exc.value.offset == 1
    with pytest.raises(ParseError) as exc:
        parse_sequence("|01…1")
    assert exc.value.offset == 6  # the ellipsis occupies three bytes


def test_print_sequence_roundtrip():
    for text in ("10|01", "|01001", "|", "10|1011", "|10…"):
        assert print_sequence(parse_sequence(text)) == text


def test_print_parse_roundtrip_random():
    rng = random.Random(99)
    for _ in range(200):
        a = random_sequence(rng)
        assert parse_sequence(print_sequence(a)) == a


# --------------------------------------------------------------- universe


def test_sequence_to_universe():
    got = sequence_to_universe(parse_sequence("10|01"))
    assert got == [Braced("x", -2), Braced("x", 0), Braced("x", 2)]
    assert sequence_to_universe(BAR) == [Braced("x", 0)]
    grouped = sequence_to_universe(parse_sequence("(1,0|1,0,1,1)"))
    assert [print_expr(e) for e in grouped] == [
        "{x}^(-2)",
        "x",
        "{x}",
        "{x}^(3)",
        "{x}^(4)",
    ]
    named = sequence_to_universe(parse_sequence("|1"), atom="y")
    assert named == [Braced("y", 0), Braced("y", 1)]
    with pytest.raises(InvariantError):
        sequence_to_universe(BAR, atom="not a name")
    with pytest.raises(InvariantError):
        sequence_to_universe(BAR, atom=5)
    with pytest.raises(InvariantError):
        expand_to_fuzzy(BAR, 5)


# ------------------------------------------------------------- level maps


def test_iterate_level_identity():
    for t in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert iterate_level(t, 0) == t


def test_iterate_level_half():
    assert abs(iterate_level(0.5, 1) - U1_OF_HALF) <= 1e-14
    assert iterate_level(0.5, 1) == 2.0**0.5 - 1.0


def test_iterate_level_mutual_inverse():
    for i in range(1, 10):
        t = i / 10.0
        assert abs(iterate_level(iterate_level(t, 1), -1) - t) <= 1e-15
        assert abs(iterate_level(iterate_level(t, -1), 1) - t) <= 1e-15


def test_iterate_level_fixed_points_exact():
    for k in range(-50, 51):
        assert iterate_level(0.0, k) == 0.0
        assert iterate_level(1.0, k) == 1.0


def test_iterate_level_range_error():
    for t in (-0.1, 1.1, 2.0, -1e-9):
        with pytest.raises(RangeError):
            iterate_level(t, 1)
    for k in (2.5, -0.5, math.inf, -math.inf, math.nan):
        with pytest.raises(RangeError):
            iterate_level(0.3, k)
    for k in (-7, 0, 2, 10**6):
        assert float.hex(iterate_level(0.3, k)) == float.hex(level_value(0.3, k))


def test_codec_api_takes_numbers_only():
    a = parse_sequence("10|01")
    for bad in (True, False, "0.3", None, b"\x01", [0.5]):
        with pytest.raises(RangeError):
            encode(bad)
        with pytest.raises(RangeError):
            iterate_level(bad, 2)
        with pytest.raises(RangeError):
            iterate_level(0.5, bad)
        with pytest.raises(RangeError):
            series_cardinality(a, bad)
    # an int t or w and an integral float k stay numbers
    assert iterate_level(0.5, 2.0) == iterate_level(0.5, 2)
    assert iterate_level(1, -3) == 1.0
    assert series_cardinality(a, 1) == 3.0
    assert encode(1) == BAR


def test_level_monotone_decreasing_in_k():
    for t in (0.1, 0.5, 0.9):
        values = [iterate_level(t, k) for k in range(-20, 21)]
        for lower, higher in zip(values[1:], values):
            assert lower < higher
        assert iterate_level(t, 50) < 1e-6
        assert iterate_level(t, -50) > 1.0 - 1e-6


def test_level_semigroup():
    for m in range(-6, 7):
        for n in range(-6, 7):
            for t in (0.05, 0.3, 0.5, 0.7, 0.95):
                composed = iterate_level(iterate_level(t, n), m)
                direct = iterate_level(t, m + n)
                assert abs(composed - direct) <= 1e-13, (m, n, t)


# ----------------------------------------------------------------- series


def test_series_bar_is_identity():
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert series_cardinality(BAR, t) == t


def test_series_endpoint_values():
    a = parse_sequence("10|01")
    assert series_cardinality(a, 0.0) == 0.0
    assert series_cardinality(a, 1.0) == 3.0
    rng = random.Random(4)
    for _ in range(20):
        s = random_sequence(rng)
        assert series_cardinality(s, 0.0) == 0.0
        assert series_cardinality(s, 1.0) == float(sum(s.bits))


def test_series_strictly_increasing():
    rng = random.Random(17)
    seqs = [parse_sequence("10|01"), parse_sequence("|01001"), BAR]
    seqs += [random_sequence(rng) for _ in range(10)]
    grid = [i / 20.0 for i in range(21)]
    for a in seqs:
        values = [series_cardinality(a, t) for t in grid]
        for prev, nxt in zip(values, values[1:]):
            assert prev < nxt, a


def test_series_range_error():
    with pytest.raises(RangeError):
        series_cardinality(BAR, -0.5)
    with pytest.raises(RangeError):
        series_cardinality(BAR, 1.5)


# ----------------------------------------------------------------- decode


def _count_root_calls(monkeypatch):
    calls = []
    solve = seq_codec.series_root

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(seq_codec, "series_root", counted)
    return calls


# the counting tests build fresh sequences: a module constant such as BAR
# keeps the root of any earlier test's decode


def test_decode_then_expand_solves_once(monkeypatch):
    calls = _count_root_calls(monkeypatch)
    a = parse_sequence("10|01")
    w = decode(a)
    fs = expand_to_fuzzy(a)
    assert decode(a) == w and len(calls) == 1
    assert fs.membership_table()[Braced("x", 0)] == w
    assert expand_to_fuzzy(a) == fs and len(calls) == 1


def test_decode_solves_again_for_another_tolerance(monkeypatch):
    calls = _count_root_calls(monkeypatch)
    loose = SolverConfig(tol_root=1e-3)
    a = parse_sequence("|01001")
    fine_root = decode(a)
    loose_root = decode(a, loose)
    assert len(calls) == 2 and loose_root != fine_root
    assert loose_root == decode(parse_sequence("|01001"), loose)
    assert len(calls) == 3
    # the memo holds the last tolerance's root only
    assert decode(a, loose) == loose_root and len(calls) == 3
    assert decode(a) == fine_root and len(calls) == 4
    # an equal tolerance is the same tolerance
    assert decode(a, SolverConfig(tol_root=1e-12, max_terms=3)) == fine_root
    assert len(calls) == 4


def test_decode_equal_sequences_solve_on_their_own(monkeypatch):
    calls = _count_root_calls(monkeypatch)
    a, b = parse_sequence("10|1011"), parse_sequence("10|1011")
    assert a == b and a is not b
    assert decode(a) == decode(b) and len(calls) == 2


def test_decode_memo_is_invisible():
    a = parse_sequence("10|01")
    decode(a)
    fresh = parse_sequence("10|01")
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
    assert pickle.dumps(a) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(a)) == fresh
    assert a.__match_args__ == ("m_star", "bits", "truncated")
    for copy in (dataclasses.replace(a), pickle.loads(pickle.dumps(a))):
        assert copy == a and copy._root is None
    with pytest.raises(TypeError):
        BinarySequence(0, (1,), False, (1e-12, 0.5))
    with pytest.raises(TypeError):
        BinarySequence(0, (1,), _root=(1e-12, 0.5))


def test_decode_bar_exact():
    assert decode(BAR) == 1.0


def test_decode_reference_roots():
    assert abs(decode(parse_sequence("10|01")) - ROOT_A) <= ROOT_TOL
    assert abs(decode(parse_sequence("|01001")) - ROOT_B) <= ROOT_TOL


def test_decode_satisfies_series_equation():
    for text in ("10|01", "|01001", "10|1011"):
        a = parse_sequence(text)
        w = decode(a)
        assert abs(series_cardinality(a, w) - 1.0) <= 1e-11


def test_decode_respects_tolerance():
    a = parse_sequence("10|01")
    coarse = decode(a, SolverConfig(tol_root=1e-4))
    assert abs(coarse - ROOT_A) <= 1e-3
    fine = decode(a, SolverConfig(tol_root=1e-14))
    assert abs(fine - ROOT_A) <= 1e-13


def test_decode_truncated_prefix_upper_bounds_value():
    # the stored prefix omits positive contributions, so its root is high
    full = parse_sequence("|01001")
    prefix = BinarySequence(0, full.bits[:3], truncated=True)
    assert decode(prefix) > decode(full)


def test_bracketing_sanity():
    rng = random.Random(23)
    for _ in range(50):
        a = random_sequence(rng)
        assert series_cardinality(a, 0.0) == 0.0 < 1.0
        assert series_cardinality(a, 1.0) >= 1.0


# ----------------------------------------------------------------- encode


def test_encode_one_is_bar():
    a = encode(1.0)
    assert a == BAR and not a.truncated


def test_encode_near_one_within_tolerance_is_bar():
    assert encode(1.0 - 1e-16) == BAR


def test_encode_reference_03():
    a = encode(0.3)
    assert a.m_star == -4
    assert a.nonzero_indices[:5] == (-4, 0, 5, 15, 20)
    # deeper indices agree with the high-precision oracle
    want = (-4, 0) + GREEDY_03[1:]
    assert a.nonzero_indices[: len(want)] == want
    assert abs(series_cardinality(a, 0.3) - 1.0) <= 1e-10


def test_encode_reference_08():
    a = encode(0.8)
    assert a.m_star == 0
    want = (0,) + GREEDY_08
    assert a.nonzero_indices[: len(want)] == want
    assert abs(series_cardinality(a, 0.8) - 1.0) <= 1e-10


def test_encode_termination_contract():
    for w in (0.05, 0.3, 0.5, 0.8, 0.97):
        a = encode(w)
        residual = series_cardinality(a, w) - 1.0
        if a.truncated:
            assert sum(a.bits) == DEFAULT_CONFIG.max_terms
        else:
            assert abs(residual) <= DEFAULT_CONFIG.tol_residual


def test_encode_truncation_flag():
    a = encode(0.3, SolverConfig(max_terms=5))
    assert a.truncated
    assert sum(a.bits) == 5
    assert a.nonzero_indices == (-4, 0, 5, 15, 20)
    assert print_sequence(a).endswith("…")


def test_encode_range_errors():
    for w in (0.0, -0.5, 1.0000001, 2.0):
        with pytest.raises(RangeError):
            encode(w)


def test_encode_index_cap():
    with pytest.raises(IndexCapExceededError):
        encode(1e-12, SolverConfig(max_index=32))


def test_encoder_greedy_choices_are_tight():
    # replay the selection rule with the same incremental level updates
    rng = random.Random(31)
    values = [0.3, 0.8, 0.5] + [0.01 + 0.98 * rng.random() for _ in range(40)]
    for w in values:
        a = encode(w)
        s = w - 1.0
        v = iterate_level(w, a.m_star)
        for k in range(a.m_star, a.last_index + 1):
            if k != 0:
                if a.bit(k):
                    assert s + v <= 0.0, (w, k)
                    s += v
                else:
                    assert s + v > 0.0, (w, k)
            v = 2.0**v - 1.0


# -------------------------------------------------------------- expansion


def test_expand_reference_a():
    fs = expand_to_fuzzy(parse_sequence("10|01"))
    assert [print_expr(e) for e, _ in fs.elements] == ["{x}^(-2)", "x", "{x}^(2)"]
    for (_, mu), want in zip(fs.elements, EXPANSION_A):
        assert abs(mu - want) <= ROOT_TOL
    assert abs(scalar_cardinality(fs) - 1.0) <= 1e-9


def test_expand_reference_b():
    fs = expand_to_fuzzy(parse_sequence("|01001"))
    assert [print_expr(e) for e, _ in fs.elements] == ["x", "{x}^(2)", "{x}^(5)"]
    for (_, mu), want in zip(fs.elements, EXPANSION_B):
        assert abs(mu - want) <= ROOT_TOL
    assert abs(scalar_cardinality(fs) - 1.0) <= 1e-9


def test_expand_bar_is_classical_singleton():
    fs = expand_to_fuzzy(BAR)
    assert fs.elements == ((Braced("x", 0), 1.0),)


def test_expand_custom_atom():
    fs = expand_to_fuzzy(parse_sequence("10|01"), atom="y")
    assert [print_expr(e) for e, _ in fs.elements] == ["{y}^(-2)", "y", "{y}^(2)"]


def _expansion_inputs() -> list[BinarySequence]:
    rng = random.Random(404)
    seqs = [random_sequence(rng) for _ in range(100)]
    for _ in range(200):
        w = rng.random() if rng.random() < 0.6 else 10.0 ** rng.uniform(-15, -1)
        seqs.append(encode(w, SolverConfig(max_terms=rng.randint(2, 64))))
    seqs.append(BinarySequence(-150, (1,) + (0,) * 149 + (1,)))
    seqs.append(BinarySequence(-3, (1, 1, 1, 1) + (0,) * 300 + (1,)))
    return seqs


def test_expand_matches_per_bit_levels():
    # the levels are rungs of two ladders of w, one down and one up; each
    # must be bit-identical to u_k(w) from w itself
    for a in _expansion_inputs():
        w = decode(a)
        fs = expand_to_fuzzy(a)
        assert len(fs.elements) == len(a.nonzero_indices)
        for (e, mu), k in zip(fs.elements, a.nonzero_indices):
            assert e == Braced("x", k)
            assert float.hex(mu) == float.hex(level_value(w, k)), (str(a), k)


def test_expand_steps_once_per_level(monkeypatch):
    # 1-bits at every index in -40..40: one step per level, not |k| per bit
    a = BinarySequence(-40, (1,) * 81)
    w = decode(a)
    calls = {"up": 0, "down": 0}

    def counted(name):
        step = getattr(_kernels, "_" + name)

        def counting(v):
            calls[name] += 1
            return step(v)

        return counting

    monkeypatch.setattr(_kernels, "_up", counted("up"))
    monkeypatch.setattr(_kernels, "_down", counted("down"))
    fs = expand_to_fuzzy(a)
    assert calls == {"up": 40, "down": 40}
    monkeypatch.undo()
    for (e, mu), k in zip(fs.elements, range(-40, 41)):
        assert e == Braced("x", k)
        assert float.hex(mu) == float.hex(level_value(w, k)), k


def _far_bits(low: int, high: int, truncated: bool = False) -> BinarySequence:
    # 1-bits at low, 0 and high, and 40 zeros past high when truncated
    bits = [0] * (high - low + 1 + 40 * truncated)
    bits[0] = bits[-low] = bits[high - low] = 1
    return BinarySequence(low, tuple(bits), truncated)


@pytest.mark.parametrize(
    "low, high, truncated",
    [(-150, 150, False), (-200, 150, False), (-300, 300, False),
     (-300, 300, True), (0, 150, True), (0, 0, True)],
)
def test_expand_reads_levels_past_both_stalls(low, high, truncated, monkeypatch):
    a = _far_bits(low, high, truncated)
    w = decode(a)
    steps = []
    for name in ("_up", "_down"):
        step = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda v, step=step: steps.append(v) or step(v))
    fs = expand_to_fuzzy(a)
    monkeypatch.undo()
    ks = a.nonzero_indices
    assert [e for e, _ in fs.elements] == [Braced("x", k) for k in ks]
    for (_, mu), k in zip(fs.elements, ks):
        assert float.hex(mu) == float.hex(level_value(w, k)), k
    # each ladder is walked once, and no further than where it stalls
    assert len(steps) <= -ks[0] + ks[-1]
    if ks[-1] == 300:
        # both ladders stalled before their last 1-bit
        assert level_value(w, 299) == level_value(w, 300)
        assert level_value(w, -299) == level_value(w, -300)
        assert len(steps) < 400


def test_expand_checks_the_atom_before_solving(monkeypatch):
    calls = []
    monkeypatch.setattr(seq_codec, "series_root", lambda *args: calls.append(args))
    with pytest.raises(InvariantError):
        expand_to_fuzzy(parse_sequence("10|01"), "1bad")
    assert calls == []


def test_cardinality_conservation_random():
    rng = random.Random(77)
    for _ in range(60):
        a = random_sequence(rng)
        fs = expand_to_fuzzy(a)
        assert abs(scalar_cardinality(fs) - 1.0) <= 1e-9, a


# -------------------------------------------------------------- roundtrip


@settings(max_examples=150)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_roundtrip_property(w):
    assert abs(decode(encode(w)) - w) <= 1e-10


def test_roundtrip_extremes():
    for w in (0.01, 0.5, 0.99, 1.0, 0.999999):
        assert abs(decode(encode(w)) - w) <= 1e-10


# ----------------------------------------------------------------- config


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(tol_root=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(tol_residual=-1e-9)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError):
            SolverConfig(tol_root=bad)
        with pytest.raises(ConfigError):
            SolverConfig(tol_residual=bad)
    with pytest.raises(ConfigError):
        SolverConfig(max_terms=0)
    with pytest.raises(ConfigError):
        SolverConfig(max_index=0)
    # caps are integers, tolerances numbers; a bool is neither
    for bad in (math.nan, 2.5, 3.0, "3", True, None):
        with pytest.raises(ConfigError):
            SolverConfig(max_terms=bad)
        with pytest.raises(ConfigError):
            SolverConfig(max_index=bad)
    for bad in ("x", True, None):
        with pytest.raises(ConfigError):
            SolverConfig(tol_root=bad)
        with pytest.raises(ConfigError):
            SolverConfig(tol_residual=bad)
    assert SolverConfig() == DEFAULT_CONFIG


# ------------------------------------------------------------------- JSON


def test_sequence_json_roundtrip():
    rng = random.Random(55)
    for _ in range(50):
        a = random_sequence(rng)
        assert sequence_from_json(sequence_to_json(a)) == a


def test_sequence_json_shape():
    a = parse_sequence("10|01")
    assert (
        sequence_to_json(a)
        == '{"m_star":-2,"bits":[1,0,1,0,1],"truncated":false}'
    )


def test_sequence_json_defaults_and_extras():
    a = sequence_from_json('{"m_star":0,"bits":[1],"value":0.9,"extra":[]}')
    assert a == BAR and not a.truncated


@pytest.mark.parametrize(
    "text",
    [
        "[1,0]",
        '{"bits":[1]}',
        '{"m_star":0}',
        '{"m_star":true,"bits":[1]}',
        '{"m_star":0,"bits":[1.0]}',
        '{"m_star":0,"bits":[true]}',
        '{"m_star":0,"bits":[1],"truncated":"no"}',
        "{not json",
    ],
)
def test_sequence_json_rejects_malformed(text):
    with pytest.raises(ParseError):
        sequence_from_json(text)


def test_sequence_json_too_deep_is_a_parse_error():
    # nesting json's decoder cannot follow ended in RecursionError
    text = '{"m_star":%s,"bits":[1]}' % ("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError) as exc:
        sequence_from_json(text)
    assert str(exc.value) == "invalid JSON: nested too deeply (byte offset 0)"
