"""Fuzzy sets, membership propagation, power sets, verification reports."""

import copy
import dataclasses
import json
import math
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzznest import (
    EMPTY,
    POWER_SET_CAP,
    AtomUniverse,
    Braced,
    CapExceededError,
    Empty,
    ConfigError,
    DomainError,
    DuplicateElementError,
    FuzzySet,
    InvariantError,
    LevelError,
    MissingMembershipError,
    ParseError,
    SetOf,
    UniverseError,
    VerificationReport,
    atoms_of,
    construct_fuzzy_set,
    expand_to_fuzzy,
    fuzzy_power_set,
    fuzzyset_from_json,
    fuzzyset_to_json,
    in_superstructure,
    iterate_level,
    normalize,
    parse_expr,
    parse_sequence,
    print_expr,
    propagate_membership,
    scalar_cardinality,
    verify_classical_degeneracy,
    verify_power_cardinality,
)
from fuzznest import cli, fuzzy_core, set_expr
from helpers import (
    ATOM_POOL,
    HUGE_LEVEL,
    INT_DIGIT_LIMIT,
    random_expr,
    random_flat_set,
    trusted_fuzzy_set,
)
import legacy_power_set
import legacy_propagate
import oracle_mp
from oracle_mp import CONSTRUCTION_VALUES, POWERSET_VALUES

TOL = 1e-14  # frozen-literal comparisons: a few ulps of slack


def example_base_4() -> FuzzySet:
    return FuzzySet.flat([("x1", 0.2), ("x2", 0.3), ("x3", 0.5), ("x4", 1.0)])


def example_base_3() -> FuzzySet:
    return FuzzySet.flat([("x1", 0.2), ("x2", 0.3), ("x3", 0.5)])


# ---------------------------------------------------------- construction


def test_build_validates():
    u = AtomUniverse(("x1", "x2"))
    fs = FuzzySet.build(u, [(Braced("x1", 0), 0.5), (EMPTY, 1.0)])
    assert fs.elements == ((Braced("x1", 0), 0.5), (EMPTY, 1.0))
    with pytest.raises(InvariantError):
        FuzzySet.build(u, [(Braced("x1", 0), 1.5)])
    with pytest.raises(InvariantError):
        FuzzySet.build(u, [(Braced("x1", 0), -0.1)])
    with pytest.raises(InvariantError):
        FuzzySet.build(u, [(EMPTY, 0.5)])
    with pytest.raises(UniverseError):
        FuzzySet.build(u, [(Braced("zz", 0), 0.5)])
    with pytest.raises(DuplicateElementError):
        FuzzySet.build(u, [(Braced("x1", 1), 0.5), (SetOf((Braced("x1", 0),)), 0.5)])


@pytest.mark.parametrize(
    "mu", [True, "1", None, pytest.param(10**400, id="beyond-float-range")]
)
def test_memberships_must_be_numbers(mu):
    with pytest.raises(InvariantError):
        FuzzySet.flat([("x1", mu)])
    assert FuzzySet.flat([("x1", 1)]).elements == ((Braced("x1", 0), 1.0),)


@pytest.mark.parametrize(
    "memberships", [5, [5], [("x", 0.5, 1)]], ids=["int", "int-item", "triple"]
)
def test_flat_needs_name_membership_pairs(memberships):
    with pytest.raises(InvariantError):
        FuzzySet.flat(memberships)


_NOT_PAIRS = InvariantError, "build() takes (expression, membership) pairs"


@pytest.mark.parametrize(
    "pairs, refusal",
    [
        (7, _NOT_PAIRS),
        ([5], _NOT_PAIRS),
        ([(Braced("x", 0),)], _NOT_PAIRS),
        ([(Braced("x", 0), 0.5, 1)], _NOT_PAIRS),
        # a pair whose expression is not a node reaches the canonical pass
        ([(5, 0.5)], (TypeError, "not a set expression: 5")),
    ],
    ids=["int", "int-item", "single", "triple", "not-a-node"],
)
def test_build_needs_expression_membership_pairs(pairs, refusal):
    with pytest.raises(Exception) as info:
        FuzzySet.build(AtomUniverse(("x",)), pairs)
    assert (type(info.value), str(info.value)) == refusal


def test_build_canonicalizes():
    u = AtomUniverse(("x",))
    fs = FuzzySet.build(u, [(Braced(Braced("x", 2), -1), 0.4)])
    assert fs.elements == ((Braced("x", 1), 0.4),)


def test_flat_constructor():
    fs = example_base_3()
    assert fs.universe.atoms == ("x1", "x2", "x3")
    assert fs.membership_table()[Braced("x2", 0)] == 0.3


# ------------------------------------------------------------ cardinality


def test_scalar_cardinality_reference_base():
    assert scalar_cardinality(example_base_3()) == 1.0


def test_scalar_cardinality_empty_set():
    assert scalar_cardinality(FuzzySet(AtomUniverse(()), (), ())) == 0.0


def test_scalar_cardinality_decoded_triple():
    u = AtomUniverse(("x",))
    fs = FuzzySet.build(
        u,
        [
            (Braced("x", -2), 0.4884),
            (Braced("x", 0), 0.3222),
            (Braced("x", 2), 0.1894),
        ],
    )
    assert abs(scalar_cardinality(fs) - 1.0) <= 1e-4


# ------------------------------------------------------------ propagation


def test_propagate_reference_values():
    base = example_base_4()
    texts = ("{∅,x1}", "{{x2},{x3}}", "{x1,{x2,{x3,{x4}}}}")
    for text, want in zip(texts, CONSTRUCTION_VALUES):
        got = propagate_membership(base, parse_expr(text))
        assert abs(got - want) <= TOL, (text, got, want)


def test_propagate_first_value_is_pow_identity():
    base = example_base_4()
    got = propagate_membership(base, parse_expr("{∅,x1}"))
    # {∅,x1} multiplies (2^1 - 1) by (2^0.2 - 1)
    assert got == (2.0**0.2 - 1.0)


def test_propagate_empty_is_one():
    assert propagate_membership(example_base_4(), EMPTY) == 1.0
    assert propagate_membership(random_flat_set(random.Random(1), 5), EMPTY) == 1.0


def test_propagate_stored_element_returned_verbatim():
    base = example_base_4()
    assert propagate_membership(base, Braced("x4", 0)) == 1.0
    assert propagate_membership(base, Braced("x2", 0)) == 0.3


def test_propagate_negative_level_fixed_point():
    base = example_base_4()
    assert propagate_membership(base, Braced("x4", -1)) == 1.0


def test_propagate_level_uses_base_membership():
    base = example_base_4()
    got = propagate_membership(base, Braced("x3", 1))
    assert got == iterate_level(0.5, 1)


def test_propagate_missing_membership():
    u = AtomUniverse(("x1", "x2"))
    base = FuzzySet.build(u, [(Braced("x1", 0), 0.5)])
    with pytest.raises(MissingMembershipError):
        propagate_membership(base, Braced("x2", 1))


def test_propagate_foreign_atom():
    with pytest.raises(UniverseError):
        propagate_membership(example_base_4(), Braced("zz", 0))


def test_propagate_normalizes_input():
    base = example_base_4()
    raw = Braced(Braced("x3", 2), -1)
    assert propagate_membership(base, raw) == propagate_membership(
        base, Braced("x3", 1)
    )


def test_propagate_duplicate_members_count_once():
    # {x5,x5} is the set {x5}, which folds to the braced atom {x5}; the
    # product rule runs over the deduplicated members only
    e = parse_expr("{{x7}^(-3),{x5,x5}}")
    assert print_expr(e) == "{{x7}^(-3),{x5}}"
    base = FuzzySet.flat([("x5", 0.3), ("x7", 0.6)])
    got = propagate_membership(base, e)
    assert got == 0.12976898762793104
    want = oracle_mp.up(oracle_mp.level(0.6, -3)) * oracle_mp.up(
        oracle_mp.level(0.3, 1)
    )
    assert abs(got - float(want)) <= TOL


def test_listed_sets_print_only_sets_of_their_depth(monkeypatch):
    # with {x,y} listed, rule 2 looks each set up by the text its
    # canonicalization made, and the base is the texts build() gave it,
    # so nothing is printed at any depth of the probe
    u = AtomUniverse(("x", "y"))
    pairs = [("x", 0.3), ("y", 0.6), ("{x,y}", 0.25)]
    base = FuzzySet.build(u, [(parse_expr(t), mu) for t, mu in pairs])
    printed = []

    def counted(e):
        printed.append(e)
        return print_expr(e)

    monkeypatch.setattr(set_expr, "print_expr", counted)
    counts = []
    for depth in (1000, 2000):
        probe = parse_expr("{y," * depth + "x" + "}" * depth)
        printed.clear()
        got = propagate_membership(base, probe)
        counts.append(len(printed))
        want = 0.25  # the innermost set, {x,y}, keeps its stored value
        for _ in range(depth - 1):
            want = (2.0 ** 0.6 - 1.0) * (2.0 ** want - 1.0)
        assert got == want
    assert counts[0] == counts[1] == 0


def test_propagation_walks_each_element_once(monkeypatch):
    # construct_fuzzy_set and propagate_membership value each element in
    # the pass that canonicalizes it: one _post_order per element and no
    # other walk; verify_classical_degeneracy adds one atoms_of per probe,
    # itself one _post_order
    u = AtomUniverse(("x", "y"))
    pairs = [("x", 0.3), ("y", 0.6), ("{x,y}", 0.25), ("{x}^(2)", 0.5)]
    base = FuzzySet.build(u, [(parse_expr(t), mu) for t, mu in pairs])
    classical = FuzzySet.build(u, [(parse_expr(t), 0.0) for t, _ in pairs])
    pair = parse_expr("{x,y}")
    wider = AtomUniverse(("x", "y", "w"))
    partial = FuzzySet.build(wider, [(parse_expr(t), mu) for t, mu in pairs])
    partial_01 = FuzzySet.build(wider, [(parse_expr(t), 1.0) for t, _ in pairs])
    exprs = [
        Braced("x", 3), EMPTY, pair, parse_expr("{{x}^(2),{y,{x,y}}}"),
        SetOf((SetOf((SetOf((SetOf((pair,)),)),)),)),
        SetOf((Braced(Braced("y", 1), -2), pair, pair)),
    ]
    walks = {"_post_order": 0, "atoms_of": 0}

    def counted(name, real):
        def walk(*args):
            walks[name] += 1
            return real(*args)
        return walk

    def refused(*args):
        raise AssertionError("a second walk")

    post_order = counted("_post_order", set_expr._post_order)
    monkeypatch.setattr(set_expr, "_post_order", post_order)
    for name in ("print_expr", "in_superstructure", "structural_depth"):
        monkeypatch.setattr(set_expr, name, refused)
        monkeypatch.setattr(fuzzy_core, name, refused, raising=False)
    monkeypatch.setattr(fuzzy_core, "atoms_of", refused)
    fs = construct_fuzzy_set(base, exprs)
    assert walks["_post_order"] == len(exprs) == len(fs.elements)
    for e in exprs:
        propagate_membership(base, e)
    assert walks["_post_order"] == 2 * len(exprs)
    monkeypatch.setattr(fuzzy_core, "atoms_of", counted("atoms_of", atoms_of))
    assert verify_classical_degeneracy(classical, exprs).passed
    assert walks == {"_post_order": 4 * len(exprs), "atoms_of": len(exprs)}
    # an element that raises UniverseError or MissingMembershipError takes
    # the pass's one _post_order, then one in_superstructure, which walks
    # once more; w is in the universe but not listed, z is foreign
    monkeypatch.setattr(
        fuzzy_core, "in_superstructure", counted("in_superstructure", in_superstructure)
    )
    faulty = [
        (Braced("z", 2), UniverseError),
        (SetOf((Braced("w", 0), Braced("z", 0))), UniverseError),
        (Braced("w", -1), MissingMembershipError),
        (SetOf((SetOf((SetOf((Braced("w", 0), pair)),)),)), MissingMembershipError),
    ]
    for e, error in faulty:
        for call in (
            lambda: construct_fuzzy_set(partial, [e]),
            lambda: propagate_membership(partial, e),
            lambda: verify_classical_degeneracy(partial_01, [e]),
        ):
            walks.update(_post_order=0, atoms_of=0, in_superstructure=0)
            with pytest.raises(error):
                call()
            assert walks == {"_post_order": 2, "atoms_of": 0, "in_superstructure": 1}


def test_propagation_takes_a_trusted_base_as_build_would_make_it():
    # propagation values items only, and construct_fuzzy_set builds
    # through the validated maker: from a trusted base that lists a
    # foreign atom, the atom propagates its listed value; a value outside
    # [0,1] or a bool is refused as an element's membership; an int
    # comes back as a float
    u = AtomUniverse(("x",))
    foreign = FuzzySet(u, ("z",), (0.5,))
    assert propagate_membership(foreign, Braced("z", 0)) == 0.5
    assert construct_fuzzy_set(foreign, [Braced("z", 0)]).texts == ("z",)
    refused = [
        (1.5, "x", "membership 1.5 for x is outside [0,1]"),
        (1.5, "{x}", "membership 1.8284271247461903 for {x} is outside [0,1]"),
        (True, "x", "membership True for x is not a number"),
        (True, "{x}", "membership True for {x} is not a number"),
    ]
    for mu, text, message in refused:
        trusted = FuzzySet(u, ("x",), (mu,))
        with pytest.raises(InvariantError) as info:
            propagate_membership(trusted, parse_expr(text))
        assert str(info.value) == message
    one = propagate_membership(FuzzySet(u, ("x",), (1,)), Braced("x", 0))
    assert type(one) is float and one == 1.0


def test_a_listed_set_of_depth_0_keeps_its_stored_value():
    # {{x}^(-1),{y}^(-1)} has depth 0, the depth of a level-0 atom, and
    # {x}^(2) has depth 2, a depth no listed set has: rule 2 must still
    # give each its stored value, alone and as a member
    u = AtomUniverse(("x", "y"))
    pairs = [
        ("x", 0.3), ("y", 0.6), ("{{x}^(-1),{y}^(-1)}", 0.25), ("{x}^(2)", 0.5)
    ]
    base = FuzzySet.build(u, [(parse_expr(t), mu) for t, mu in pairs])
    table, sets_listed = legacy_propagate.lookup_table(base)
    probes = [
        parse_expr(t)
        for t in (
            "{{x}^(-1),{y}^(-1)}",
            "{x,{{x}^(-1),{y}^(-1)}}",
            "{{x}^(2),{{y}^(-1),{x}^(-1)},{y}^(-1)}",
            "{{x}^(-1)}",
        )
    ]
    constructed = construct_fuzzy_set(base, probes)
    want = [legacy_propagate.propagate(table, sets_listed, p) for p in probes]
    assert want[0] == 0.25
    assert [propagate_membership(base, p) for p in probes] == want
    assert [mu for _, mu in constructed.elements] == want


# --------------------------------------------------------- construct sets


def test_construct_reference_set():
    base = example_base_4()
    texts = ["{∅,x1}", "{{x2},{x3}}", "{x1,{x2,{x3,{x4}}}}"]
    result = construct_fuzzy_set(base, [parse_expr(t) for t in texts])
    assert len(result.elements) == 3
    # input order preserved
    assert print_expr(result.elements[0][0]) == "{x1,∅}"
    for (_, mu), want in zip(result.elements, CONSTRUCTION_VALUES):
        assert abs(mu - want) <= TOL


def test_construct_empty_probe():
    result = construct_fuzzy_set(example_base_4(), [EMPTY])
    assert result.elements == ((EMPTY, 1.0),)


def test_construct_all_ones_base_gives_ones():
    base = FuzzySet.flat([(name, 1.0) for name in ("x1", "x2", "x3")])
    probes = [
        parse_expr(t)
        for t in ("{x1,x2}", "{x1,{x2,x3}}", "{x3}^(4)", "{x1}^(-3)", "∅")
    ]
    result = construct_fuzzy_set(base, probes)
    assert all(mu == 1.0 for _, mu in result.elements)


def test_construct_duplicate_detection():
    base = example_base_4()
    with pytest.raises(DuplicateElementError):
        construct_fuzzy_set(
            base, [parse_expr("{x1}"), parse_expr("{{x1}^(0)}")]
        )


# -------------------------------------------------------------- power set


def test_power_set_reference():
    power = fuzzy_power_set(example_base_3())
    texts = [print_expr(e) for e, _ in power.elements]
    assert texts == [
        "∅",
        "{x1}",
        "{x2}",
        "{x3}",
        "{x1,x2}",
        "{x1,x3}",
        "{x2,x3}",
        "{x1,x2,x3}",
    ]
    for (_, mu), want in zip(power.elements, POWERSET_VALUES):
        assert abs(mu - want) <= TOL
    assert abs(scalar_cardinality(power) - 2.0) <= 1e-12


def test_power_set_empty_universe():
    power = fuzzy_power_set(FuzzySet(AtomUniverse(()), (), ()))
    assert power.elements == ((EMPTY, 1.0),)
    assert scalar_cardinality(power) == 1.0


def test_power_set_single_atom():
    for u in (0.0, 0.25, 0.7, 1.0):
        base = FuzzySet.flat([("x1", u)])
        card = scalar_cardinality(fuzzy_power_set(base))
        assert abs(card - 2.0**u) <= 1e-12


def test_power_set_cap():
    assert POWER_SET_CAP == 20
    for n in (21, 24):
        base = random_flat_set(random.Random(n), n)
        message = rf"^{n} atoms would enumerate 2\^{n} subsets \(cap is 20\)$"
        with pytest.raises(CapExceededError, match=message):
            fuzzy_power_set(base)
        with pytest.raises(CapExceededError, match=message):
            verify_power_cardinality(base)
    assert verify_power_cardinality(random_flat_set(random.Random(3), 20)).passed
    # the cap is no option
    for fn in (fuzzy_power_set, verify_power_cardinality):
        with pytest.raises(TypeError):
            fn(example_base_3(), cap=3)


def test_power_set_requires_flat_base():
    u = AtomUniverse(("x1",))
    deep = FuzzySet.build(u, [(Braced("x1", 0), 0.5), (Braced("x1", 1), 0.5)])
    with pytest.raises(DomainError):
        fuzzy_power_set(deep)
    partial = FuzzySet.build(AtomUniverse(("x1", "x2")), [(Braced("x1", 0), 0.5)])
    with pytest.raises(DomainError):
        fuzzy_power_set(partial)
    wide = AtomUniverse(tuple(f"a{i}" for i in range(24)))
    over = FuzzySet.build(wide, [(Braced("a0", 0), 0.5)])
    for base in (deep, partial, over):
        # the flat check comes first, over the cap too
        with pytest.raises(DomainError):
            verify_power_cardinality(base)


def test_power_set_matches_bitmask_enumeration():
    rng = random.Random(11)
    base = random_flat_set(rng, 10)
    mus = [mu for _, mu in base.elements]
    brute = 0.0
    for mask in range(1 << 10):
        term = 1.0
        for i in range(10):
            if mask >> i & 1:
                term *= 2.0 ** mus[i] - 1.0
        brute += term
    card = scalar_cardinality(fuzzy_power_set(base))
    assert abs(card - brute) <= 1e-12
    assert abs(card - 2.0 ** scalar_cardinality(base)) <= 1e-9


def test_a_replaced_listing_subset_prints_its_own_members():
    # the listing is its texts, not its nodes: a node made from a listed
    # set by dataclasses.replace prints its own members, and a SetOf takes
    # no argument but its elements
    power = fuzzy_power_set(FuzzySet.flat([("x", 0.2), ("y", 0.3), ("z", 0.5)]))
    xyz = power.elements[-1][0]
    assert power.texts[-1] == print_expr(xyz) == "{x,y,z}"
    xy = dataclasses.replace(xyz, elements=xyz.elements[:2])
    assert xy == parse_expr("{x,y}")
    assert print_expr(xy) == str(xy) == "{x,y}"
    doc = json.loads(fuzzyset_to_json(trusted_fuzzy_set(power.universe, ((xy, 0.5),))))
    assert doc["elements"] == [{"expr": "{x,y}", "mu": 0.5}]
    with pytest.raises(TypeError):
        SetOf(xyz.elements, "nonsense")
    with pytest.raises(TypeError):
        SetOf(xy.elements, text="{x,y}")


# ------------------------------------------------------------ verification


def test_verify_power_cardinality_reference():
    report = verify_power_cardinality(example_base_3(), tol=1e-9)
    assert report.passed
    assert report.expected == 2.0
    assert report.abs_diff <= 1e-12
    assert report.label == "power-set cardinality law"


def test_verify_power_cardinality_all_zero():
    base = FuzzySet.flat([(f"x{i}", 0.0) for i in range(1, 5)])
    report = verify_power_cardinality(base, tol=1e-12)
    assert report.computed == 1.0
    assert report.expected == 1.0
    assert report.passed


def test_verify_power_cardinality_builds_no_listing(monkeypatch):
    base = random_flat_set(random.Random(8), 9)
    want = verify_power_cardinality(base)

    def no_listing(*args, **kwargs):
        raise AssertionError("the check must not build the power set")

    monkeypatch.setattr(fuzzy_core, "fuzzy_power_set", no_listing)
    assert verify_power_cardinality(base) == want
    assert abs(want.computed - want.expected) <= 1e-9


def test_verification_report_invariants():
    # abs_diff and passed are derived from the four fields, never given
    fields = [f.name for f in dataclasses.fields(VerificationReport)]
    assert fields == ["label", "computed", "expected", "tolerance"]
    assert not hasattr(VerificationReport, "check")
    with pytest.raises(TypeError):
        VerificationReport("bad", 1.0, 2.0, 0.5, 1e-9, False)
    good = VerificationReport("ok", 2.0, 1.5, 1.0)
    assert good.passed and good.abs_diff == 0.5
    bad = VerificationReport("off", 2.0, 1.5, 0.25)
    assert not bad.passed
    assert VerificationReport("exact", 1.0, 1.0, 0.0).passed
    assert VerificationReport("ints", 3, 1, 2).passed  # an int is a number
    base = example_base_4()
    for tol in (math.nan, -1e-9, -1.0, math.inf):
        with pytest.raises(ConfigError):
            VerificationReport("tol", 2.0, 1.5, tol)
        with pytest.raises(ConfigError):
            verify_power_cardinality(base, tol=tol)


@pytest.mark.parametrize("value", ["1", None, True, False, 1j])
@pytest.mark.parametrize("field", ["computed", "expected"])
def test_report_values_must_be_numbers(field, value):
    # a str once built and leaked TypeError from .passed and .abs_diff
    fields = {"label": "x", "computed": 2.0, "expected": 1.5, "tolerance": 0.1}
    with pytest.raises(ConfigError, match=f"^{field} must be a number, got "):
        VerificationReport(**{**fields, field: value})


@pytest.mark.parametrize("tol", ["1e-9", None, True, False])
def test_tolerance_must_be_a_number(tol):
    with pytest.raises(ConfigError):
        VerificationReport("tol", 2.0, 1.5, tol)
    with pytest.raises(ConfigError):
        verify_power_cardinality(example_base_4(), tol=tol)
    assert verify_power_cardinality(example_base_4(), tol=1).tolerance == 1


def test_classical_degeneracy_all_ones():
    base = FuzzySet.flat([("x1", 1.0), ("x2", 1.0)])
    probes = [
        parse_expr(t)
        for t in ("{x1,x2}", "{{x1},{x2}}", "{∅,x1,{x1,x2}}", "∅", "{x1}^(-2)")
    ]
    report = verify_classical_degeneracy(base, probes)
    assert report.passed
    assert report.computed == 0.0
    assert report.tolerance == 0.0


def test_classical_degeneracy_zero_atom():
    base = FuzzySet.flat([("x1", 0.0), ("x2", 1.0)])
    report = verify_classical_degeneracy(
        base, [parse_expr("{x1,{x2}}"), parse_expr("{x1}"), parse_expr("∅")]
    )
    assert report.passed
    assert propagate_membership(base, parse_expr("{x1,{x2}}")) == 0.0


def test_classical_degeneracy_rejects_fuzzy_base():
    with pytest.raises(DomainError):
        verify_classical_degeneracy(example_base_3(), [EMPTY])


# ------------------------------------------------------------- properties


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=len(ATOM_POOL),
        max_size=len(ATOM_POOL),
    ),
    st.integers(min_value=0),
)
def test_range_closure(mus, seed):
    base = FuzzySet.flat(list(zip(ATOM_POOL, mus)))
    rng = random.Random(seed)
    for _ in range(5):
        value = propagate_membership(base, random_expr(rng, depth=3))
        assert 0.0 <= value <= 1.0


def test_theorem_one_random_bases():
    rng = random.Random(42)
    for _ in range(50):
        base = random_flat_set(rng, rng.randint(1, 12))
        report = verify_power_cardinality(base, tol=1e-9)
        assert report.passed, report


def test_monotonicity_in_single_membership():
    rng = random.Random(5)
    for _ in range(100):
        names = list(ATOM_POOL)
        mus = {name: rng.random() for name in names}
        probe = random_expr(rng, depth=3)
        probe_atoms = set(atoms_of(probe))
        if not probe_atoms:
            continue
        target = rng.choice(sorted(probe_atoms))
        lo = dict(mus)
        hi = dict(mus)
        lo[target] = min(mus[target], rng.random())
        hi[target] = max(lo[target], rng.random())
        f_lo = FuzzySet.flat([(n, lo[n]) for n in names])
        f_hi = FuzzySet.flat([(n, hi[n]) for n in names])
        v_lo = propagate_membership(f_lo, probe)
        v_hi = propagate_membership(f_hi, probe)
        assert v_hi >= v_lo - 5e-16, (probe, v_lo, v_hi)


def test_classical_degeneracy_random_property():
    rng = random.Random(8)
    for _ in range(100):
        base = FuzzySet.flat(
            [(name, float(rng.randint(0, 1))) for name in ATOM_POOL]
        )
        zero = {
            e.atom for e, mu in base.elements if mu == 0.0
        }
        probe = random_expr(rng, depth=4)
        value = propagate_membership(base, probe)
        expected = 0.0 if any(a in zero for a in atoms_of(probe)) else 1.0
        assert value == expected, (probe, value, expected)


def test_level_composition_membership_equality():
    rng = random.Random(13)
    for _ in range(100):
        u = rng.random()
        m = rng.randint(-6, 6)
        n = rng.randint(-6, 6)
        base = FuzzySet.flat([("x", u)])
        via_set = propagate_membership(base, Braced(Braced("x", m), n))
        composed = iterate_level(iterate_level(u, m), n)
        swapped = iterate_level(iterate_level(u, n), m)
        assert abs(via_set - composed) <= 1e-12
        assert abs(via_set - swapped) <= 1e-12
        assert abs(composed - swapped) <= 1e-12


# ------------------------------------------------------------------- JSON


def test_fuzzyset_json_roundtrip():
    base = example_base_4()
    result = construct_fuzzy_set(
        base, [parse_expr(t) for t in ("{∅,x1}", "{{x2},{x3}}")]
    )
    text = fuzzyset_to_json(result)
    back = fuzzyset_from_json(text)
    assert back.universe == result.universe
    assert back.elements == result.elements  # bit-exact via 17 digits


def test_fuzzyset_json_shape():
    fs = FuzzySet.flat([("x1", 0.25)])
    assert (
        fuzzyset_to_json(fs)
        == '{"atoms":["x1"],"elements":[{"expr":"x1","mu":0.25}]}'
    )


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{",
        '{"atoms":"x1","elements":[]}',
        '{"atoms":["x1"]}',
        '{"atoms":["x1"],"elements":[{"expr":"x1"}]}',
        '{"atoms":["x1"],"elements":[{"expr":5,"mu":0.5}]}',
    ],
)
def test_fuzzyset_json_rejects_malformed(text):
    with pytest.raises(ParseError):
        fuzzyset_from_json(text)


def test_fuzzyset_json_level_past_the_int_digit_limit():
    expr = "{x1}^(%s)" % HUGE_LEVEL
    text = json.dumps({"atoms": ["x1"], "elements": [{"expr": expr, "mu": 0.5}]})
    if not INT_DIGIT_LIMIT:  # no limit: int() cannot fail
        (e, _), = fuzzyset_from_json(text).elements
        assert print_expr(e) == expr
        return
    with pytest.raises(ParseError, match="level has too many digits") as exc:
        fuzzyset_from_json(text)
    assert exc.value.offset == 6


def test_fuzzyset_json_rejects_integer_beyond_float_range():
    text = '{"atoms":["x1"],"elements":[{"expr":"x1","mu":1%s}]}' % ("0" * 400)
    with pytest.raises(ParseError, match="float range"):
        fuzzyset_from_json(text)


@pytest.mark.parametrize("flag", ["true", "false"])
def test_fuzzyset_json_rejects_boolean_membership(flag):
    text = '{"atoms":["x1"],"elements":[{"expr":"x1","mu":%s}]}' % flag
    with pytest.raises(ParseError, match='"mu" a number'):
        fuzzyset_from_json(text)
    # integer memberships stay numbers
    fs = fuzzyset_from_json(text.replace(flag, "1"))
    assert fs.elements == ((Braced("x1", 0), 1.0),)


def test_json_reader_builds_one_leaf_per_distinct_atom(monkeypatch):
    base = FuzzySet.flat([(f"x{i}", i / 13) for i in range(1, 13)])
    text = fuzzyset_to_json(fuzzy_power_set(base))
    level0 = []
    init = Braced.__init__

    def counted_init(self, atom, level):
        init(self, atom, level)
        if level == 0:
            level0.append(atom)

    def no_walk(e, universe):
        raise AssertionError("an element was walked for its atoms")

    monkeypatch.setattr(Braced, "__init__", counted_init)
    monkeypatch.setattr(fuzzy_core, "in_superstructure", no_walk)
    fs = fuzzyset_from_json(text)
    assert len(fs.texts) == 2**12
    assert sorted(level0) == sorted(base.universe.atoms)


class _CountedTokens:
    """A stand-in for set_expr._TOKEN that counts its findall calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def findall(self, text):
        self.calls += 1
        return self.pattern.findall(text)

    def finditer(self, text):
        return self.pattern.finditer(text)


@pytest.mark.parametrize("read", ["json", "elements"])
def test_a_listing_tokenizes_only_its_empty_set_and_singletons(read, monkeypatch):
    # every other subset is a flat set of names, read in one match
    n = 10
    base = FuzzySet.flat([(f"x{i}", i / (n + 1)) for i in range(1, n + 1)])
    listing = fuzzy_power_set(base)
    text = fuzzyset_to_json(listing)
    tokens = _CountedTokens(set_expr._TOKEN)
    monkeypatch.setattr(set_expr, "_TOKEN", tokens)
    if read == "json":
        assert len(fuzzyset_from_json(text).texts) == 2**n
    else:
        assert len(listing.elements) == 2**n
    assert tokens.calls == n + 1


@pytest.mark.parametrize("k", [0, 1, 7, 15])
def test_json_reader_raises_at_the_first_foreign_row(k, monkeypatch):
    doc = json.loads(fuzzyset_to_json(fuzzy_power_set(example_base_4())))
    doc["elements"][k]["expr"] = "{%s,zz}" % doc["elements"][k]["expr"]
    foreign = print_expr(parse_expr(doc["elements"][k]["expr"]))
    walked = []

    def counted(e, universe):
        walked.append(e)
        return in_superstructure(e, universe)

    monkeypatch.setattr(fuzzy_core, "in_superstructure", counted)
    with pytest.raises(UniverseError) as exc:
        fuzzyset_from_json(json.dumps(doc))
    assert str(exc.value) == f"{foreign} uses atoms outside the universe"
    assert len(walked) == k + 1  # the rows up to and including row k


def test_json_writer_edge_cases():
    empty = FuzzySet(AtomUniverse(()), (), ())
    assert fuzzyset_to_json(empty) == '{"atoms":[],"elements":[]}'
    # the trusting constructor keeps integer memberships: %.17g writes them
    # as format(mu, ".17g") did
    ints = FuzzySet(AtomUniverse(("x1", "x2")), ("x1", "x2", "∅"), (1, 0, 1))
    assert fuzzyset_to_json(ints) == (
        '{"atoms":["x1","x2"],"elements":[{"expr":"x1","mu":1},'
        '{"expr":"x2","mu":0},{"expr":"\\u2205","mu":1}]}'
    )
    assert fuzzyset_from_json(fuzzyset_to_json(ints)).elements == tuple(
        (e, float(mu)) for e, mu in ints.elements
    )


def test_fuzzyset_json_too_deep_is_a_parse_error():
    # nesting json's decoder cannot follow ended in RecursionError
    with pytest.raises(ParseError) as exc:
        fuzzyset_from_json("[" * 100_000)
    assert str(exc.value) == "invalid JSON: nested too deeply (byte offset 0)"


def test_fuzzyset_json_error_offset():
    with pytest.raises(ParseError) as exc:
        fuzzyset_from_json('{"atoms": }')
    assert exc.value.offset == 10


# ------------------------------------------------------------------ texts


def _subset_nodes(names) -> list:
    """The canonical node of every subset of the names, in listing order,
    built as the enumeration once built them: ∅, {a} for a singleton,
    and the set of the level-0 atoms in name order."""
    names = sorted(names)
    nodes = [EMPTY]
    for size in range(1, len(names) + 1):
        for combo in combinations(names, size):
            members = tuple(Braced(name, 0) for name in combo)
            nodes.append(Braced(combo[0], 1) if size == 1 else SetOf(members))
    return nodes


def _texts_producers():
    """(name, fuzzy set, its canonical nodes) for each maker of a fuzzy set."""
    base = example_base_4()
    u = base.universe
    chain = parse_expr("{x1," * 5000 + "x2" + "}" * 5000)
    flat12 = FuzzySet.flat([(f"x{i}", i / 13) for i in range(12)])
    listing = fuzzy_power_set(flat12)
    subsets = _subset_nodes(flat12.universe.atoms)
    probes = [parse_expr(t) for t in ("{∅,x1}", "{{x2},{x3}}", "{x1}^(-2)")]
    deep = construct_fuzzy_set(base, probes + [chain])
    canonical = [normalize(e) for e in probes + [chain]]
    built = [(Braced(Braced("x2", 1), 1), 0.4), (EMPTY, 1.0)]
    sequence = parse_sequence("10|01")
    return [
        ("build", FuzzySet.build(u, built), [Braced("x2", 2), EMPTY]),
        ("flat", base, [Braced(a, 0) for a in u.atoms]),
        ("fuzzyset_from_json", fuzzyset_from_json(fuzzyset_to_json(listing)), subsets),
        ("construct_fuzzy_set", deep, canonical),
        ("fuzzy_power_set", listing, subsets),
        (
            "expand_to_fuzzy",
            expand_to_fuzzy(sequence),
            [Braced("x", k) for k in sequence.nonzero_indices],
        ),
        # the trusting constructor, at depth 5000
        ("constructor", FuzzySet(u, deep.texts, deep.memberships), canonical),
    ]


def test_texts_are_the_printed_elements_for_every_producer():
    for name, fs, nodes in _texts_producers():
        # parsed at the first read, the texts give the canonical nodes
        assert [e for e, _ in fs.elements] == nodes, name
        assert fs.texts == tuple(print_expr(e) for e in nodes), name
        assert fs.elements is fs.elements, name  # parsed once, then kept
        # the memberships are the elements' own objects, so the same bits
        assert len(fs.memberships) == len(fs.elements), name
        assert all(a is b for a, (_, b) in zip(fs.memberships, fs.elements)), name


def test_every_producer_survives_pickle_and_deepcopy():
    for name, fs, _ in _texts_producers():
        for twin in (pickle.loads(pickle.dumps(fs)), copy.deepcopy(fs)):
            assert twin == fs and hash(twin) == hash(fs), name
            assert twin.texts == fs.texts and twin.memberships == fs.memberships


def test_elements_take_no_part_in_eq_hash_repr_or_pickling():
    base = example_base_3()
    trusted = FuzzySet(base.universe, ("x1", "x2", "x3"), (0.2, 0.3, 0.5))
    base.elements  # read on one side only
    assert trusted == base and hash(trusted) == hash(base)
    assert repr(trusted) == repr(base) and "elements" not in repr(base)
    assert pickle.dumps(trusted) == pickle.dumps(base)
    assert [f.name for f in dataclasses.fields(FuzzySet)] == [
        "universe", "texts", "memberships", "elements"
    ]
    replaced = dataclasses.replace(
        base, texts=base.texts[:2], memberships=base.memberships[:2]
    )
    assert replaced == FuzzySet.build(base.universe, base.elements[:2])
    assert replaced.elements == base.elements[:2]
    with pytest.raises(TypeError):
        FuzzySet(base.universe, base.texts, base.memberships, base.elements)
    with pytest.raises(ValueError):
        dataclasses.replace(base, elements=base.elements[:2])


def test_the_two_argument_constructor_stores_the_pairs_texts():
    base = example_base_4()
    pairs = construct_fuzzy_set(base, [parse_expr("{x1,{x2}}"), EMPTY]).elements
    for given_pairs in (pairs, iter(pairs), list(pairs)):
        fs = FuzzySet(base.universe, given_pairs)
        assert fs.texts == ("{x1,{x2}}", "∅")
        assert fs.memberships == tuple(mu for _, mu in pairs)
        assert fs == FuzzySet(base.universe, fs.texts, fs.memberships)
        assert fs.elements == pairs
    empty = FuzzySet(base.universe, ())
    assert (empty.texts, empty.memberships, empty.elements) == ((), (), ())


class Tagged(FuzzySet):
    """A subclass, for pickling by reference from this module."""

    __slots__ = ()


def test_a_subclass_keeps_its_type_through_pickle_and_deepcopy():
    fs = Tagged(example_base_3().universe, ("x1", "x2"), (0.2, 0.3))
    for twin in (pickle.loads(pickle.dumps(fs)), copy.deepcopy(fs)):
        assert type(twin) is Tagged and twin == fs


def test_a_missing_attribute_names_the_subclass():
    # as for any object: the message names the instance's own class
    for fs, name in (
        (Tagged(example_base_3().universe, ("x1",), (0.2,)), "Tagged"),
        (FuzzySet.flat([("x", 0.5)]), "FuzzySet"),
    ):
        with pytest.raises(AttributeError) as info:
            fs.colour
        assert str(info.value) == f"'{name}' object has no attribute 'colour'"


def test_listing_nodes_made_at_the_first_read_are_the_eager_ones():
    rng = random.Random(2110)
    for n in range(9):
        base = random_flat_set(rng, n)
        want = legacy_power_set.fuzzy_power_set(base)
        power = fuzzy_power_set(base)
        elements = power.elements
        assert [e for e, _ in elements] == _subset_nodes(base.universe.atoms)
        assert [mu.hex() for _, mu in elements] == [mu.hex() for mu in want.memberships]
        assert [mu.hex() for mu in power.memberships] == [
            mu.hex() for mu in want.memberships
        ]
        assert power.elements is elements  # kept, not made again
        # a listing whose nodes were never read answers as one whose were
        for ask in (hash, repr, pickle.dumps, want.__eq__):
            assert ask(fuzzy_power_set(base)) == ask(power), (n, ask)


def test_the_listing_path_makes_no_node(monkeypatch):
    base = random_flat_set(random.Random(10), 10)
    made = []
    for kind in (Braced, SetOf):

        def counted(self, *args, _init=kind.__init__, **kwargs):
            made.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(kind, "__init__", counted)
    parse = fuzzy_core._parse

    def parsed(*args):
        made.append("_parse")
        return parse(*args)

    monkeypatch.setattr(fuzzy_core, "_parse", parsed)
    power = fuzzy_power_set(base)
    doc = json.loads(fuzzyset_to_json(power))
    assert len(doc["elements"]) == 2**10
    assert scalar_cardinality(power) == math.fsum(power.memberships)
    assert verify_power_cardinality(base).passed
    assert len(cli._element_rows(power, 6)) == 2**10
    # copies, comparisons and hashes read the texts and memberships alone
    other = fuzzy_power_set(base)
    assert pickle.loads(pickle.dumps(power)) == power
    assert copy.deepcopy(power) == power == other
    assert hash(power) == hash(other)
    assert made == []
    # the counters see the nodes the first read of the elements makes
    power.elements
    assert made.count("_parse") == 2**10 and made.count(SetOf) > 0


def test_writers_print_no_element_the_maker_printed(monkeypatch, tmp_path, capsys):
    base = example_base_4()
    path = tmp_path / "base.json"
    path.write_text(fuzzyset_to_json(base), encoding="utf-8")
    made = [
        FuzzySet.build(base.universe, [(parse_expr("{x1,{x2}}"), 0.5)]),
        fuzzyset_from_json(path.read_text(encoding="utf-8")),
        construct_fuzzy_set(base, [parse_expr("{x1,{x2,{x3,{x4}}}}")]),
        fuzzy_power_set(example_base_3()),
    ]
    printed = []

    def counted(e):
        printed.append(e)
        return print_expr(e)

    monkeypatch.setattr(set_expr, "print_expr", counted)
    for fs in made:
        fuzzyset_to_json(fs)
    assert cli.main(["propagate", str(path), "{x1,{x2}}", "{∅,x3}"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("{x1,{x2}}")
    assert printed == []


# ---------------------------------------------------------------- identity


@pytest.fixture
def nodes_refuse_eq_and_hash(monkeypatch):
    def refuse(*args):
        raise AssertionError("a library call compared or hashed a node")

    for kind in (Empty, Braced, SetOf):
        monkeypatch.setattr(kind, "__eq__", refuse)
        monkeypatch.setattr(kind, "__hash__", refuse)


def test_no_library_call_compares_or_hashes_a_node(nodes_refuse_eq_and_hash):
    flat = example_base_3()
    listing = fuzzyset_from_json(fuzzyset_to_json(fuzzy_power_set(flat)))
    leveled = FuzzySet.build(
        flat.universe, [*flat.elements, (Braced("x1", 2), 0.7), (EMPTY, 1.0)]
    )
    probes = [
        parse_expr(t)
        for t in ("∅", "x2", "{x1}^(2)", "{x1}^(-3)", "{x1,x3}", "{{x1,x2},x3}")
    ]
    # the listing has no level-0 atoms: its probes are its sets and sets of them
    listed = [parse_expr(t) for t in ("∅", "{x2}", "{x1,x3}", "{{x1},{x1,x2}}")]
    for base, exprs in ((flat, probes), (leveled, probes), (listing, listed)):
        fs = construct_fuzzy_set(base, exprs)
        values = [propagate_membership(base, p) for p in exprs]
        assert [mu for _, mu in fs.elements] == values
    # the listing stores what rule 3 gives; a stored level wins over it
    assert [propagate_membership(listing, p) for p in listed] == [
        propagate_membership(flat, p) for p in listed
    ]
    assert propagate_membership(leveled, Braced("x1", 2)) == 0.7
    assert scalar_cardinality(fuzzy_power_set(flat)) == scalar_cardinality(listing)
    assert verify_power_cardinality(flat).passed
    classical = FuzzySet.flat([("x1", 0.0), ("x2", 1.0), ("x3", 1.0)])
    assert verify_classical_degeneracy(classical, probes).passed
    with pytest.raises(DuplicateElementError):
        FuzzySet.build(
            flat.universe, [(Braced("x1", 1), 0.5), (SetOf((Braced("x1", 0),)), 0.5)]
        )
    with pytest.raises(DomainError):
        verify_power_cardinality(leveled)
    # members that print alike, as distinct nodes: a set drops the twins
    # by text before it sorts, so the sort never reaches a node
    x1, x3 = Braced("x1", 0), Braced("x3", 0)
    twins = SetOf((SetOf((x1, x3)), SetOf((Braced("x3", 0), Braced("x1", 0)))))
    alike = [parse_expr("{x1,x1}"), parse_expr("{{x1,x2},{x2,x1}}"), twins]
    assert [print_expr(normalize(e)) for e in alike] == ["{x1}", "{{x1,x2}}", "{{x1,x3}}"]
    assert print_expr(normalize(SetOf((x1, Braced("x1", 0), x3)))) == "{x1,x3}"
    fs = construct_fuzzy_set(flat, alike)
    assert fs.texts == ("{x1}", "{{x1,x2}}", "{{x1,x3}}")
    assert fs.memberships == tuple(propagate_membership(flat, e) for e in alike)
    assert fuzzyset_from_json(fuzzyset_to_json(fs)) == fs


@pytest.mark.parametrize("level", [2.5, 2.0, 0.5, True, False, "2", None])
def test_a_level_that_is_not_an_int_raises_level_error(level):
    # every Braced checks its level first, when it is built, whatever it
    # wraps: no tree that holds such a level exists for normalize,
    # FuzzySet.build, construct_fuzzy_set, propagate_membership or
    # print_expr to meet
    exprs = [
        lambda: Braced("x", level),
        lambda: Braced(Braced("x", 1), level),
        lambda: Braced(SetOf((Braced("x", 0), Braced("y", 0))), level),
        lambda: Braced(7, level),
        lambda: SetOf((Braced("x", level), Braced("x", 2))),
        lambda: SetOf((SetOf((Braced("x", level), EMPTY)), Braced("y", 0))),
    ]
    for make in exprs:
        with pytest.raises(LevelError) as info:
            make()
        assert str(info.value) == f"level must be an integer, got {level!r}"


def test_a_level_past_the_int_digit_limit_raises_level_error():
    # a level too long to write as text, built by arithmetic since int()
    # refuses its digits; every printing path formats it in one place
    level = 10 ** (INT_DIGIT_LIMIT or 5000)
    base = FuzzySet.flat([("x", 0.5)])
    node = Braced("x", level)
    paths = [
        lambda: print_expr(node),
        lambda: str(node),
        lambda: normalize(node),
        lambda: FuzzySet.build(base.universe, [(node, 0.5)]),
        lambda: construct_fuzzy_set(base, [node]),
        lambda: propagate_membership(base, node),
    ]
    # a negative level over a set or ∅ is refused when its node is built,
    # before anything prints; the message names no level
    pair = SetOf((Braced("x", 0), Braced("y", 0)))
    for inner, kind in ((pair, "a set"), (EMPTY, "the empty set")):
        with pytest.raises(LevelError) as info:
            Braced(inner, -level)
        assert str(info.value) == f"a level belongs to an atom, not to {kind}"
    if not INT_DIGIT_LIMIT:  # no limit: the level prints and parses back
        assert parse_expr(print_expr(node)) == node
        assert print_expr(node) == "{x}^(1%s)" % ("0" * 5000)
        for path in paths:
            path()
        return
    for path in paths:
        with pytest.raises(LevelError, match="too many digits"):
            path()


def test_a_positive_level_over_a_set_is_refused_in_bounded_work(monkeypatch):
    # a level belongs to an atom: a Braced over a set or ∅ is refused
    # when it is built, at any level, 0 included, and builds no set
    pair = SetOf((Braced("x", 0), Braced("y", 0)))
    built = []
    init = SetOf.__init__

    def counted(self, elements):
        built.append(elements)
        init(self, elements)

    monkeypatch.setattr(SetOf, "__init__", counted)
    for inner, kind in ((pair, "a set"), (EMPTY, "the empty set")):
        for level in (10**9, 10 ** (INT_DIGIT_LIMIT or 5000), 0):
            with pytest.raises(LevelError) as info:
                Braced(inner, level)
            assert type(info.value) is LevelError
            assert str(info.value) == f"a level belongs to an atom, not to {kind}"
    assert built == []
    # a Braced over a braced atom folds when it is built, so a chain of
    # them built bottom up is one node
    rng = random.Random(16)
    e, total = Braced("x", 0), 0
    for _ in range(10**5):
        step = rng.choice((1, -1))
        e, total = Braced(e, step), total + step
    assert len(set_expr._post_order(e)) == 1
    assert e == Braced("x", total) and e.level == total
    assert pickle.loads(pickle.dumps(e)) == e
