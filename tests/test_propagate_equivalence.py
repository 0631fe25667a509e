"""Propagation from per-call level ladders against propagation that
applies level_value to every braced atom from scratch (frozen in
legacy_propagate.py).

Seeded random bases whose memberships include 0, -0.0, 1, 5e-324,
1e-300 and 1 - 2^-53, some listing braced atoms and sets with stored
values of their own or lacking an atom's level-0 membership, against
expressions with levels up to +-10^8. construct_fuzzy_set,
propagate_membership and verify_classical_degeneracy must give the
reference's memberships bit for bit, and fail with the reference's
exception class and message. So must raw expressions, with braces over
braced atoms (folded when they are built) and repeated members, against
the reference over their normalized form; braces over a set are refused
when they are built, at every level. A step count shows that one call
walks each atom's levels once.
"""

import math
import random

import pytest

from fuzznest import (
    EMPTY,
    AtomUniverse,
    Braced,
    FuzzySet,
    LevelError,
    MissingMembershipError,
    SetOf,
    atoms_of,
    construct_fuzzy_set,
    normalize,
    parse_expr,
    propagate_membership,
    verify_classical_degeneracy,
)
from fuzznest import fuzzy_core

import legacy_propagate as legacy

ATOMS = ("x1", "x2", "y", "z0")
SPECIAL = (0.0, -0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53)
LEVELS = (0, 1, -1, 2, -2, 64, -64, 256, -256, 10**4, -(10**4), 10**8, -(10**8))


def _level(rng: random.Random) -> int:
    return rng.choice(LEVELS) if rng.random() < 0.5 else rng.randint(-300, 300)


def _expr(rng: random.Random, depth: int):
    """A canonical expression: braced atoms at any level, ∅ and sets."""
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        if roll < 0.05:
            return normalize(SetOf(()))
        return Braced(rng.choice(ATOMS), _level(rng))
    n = rng.randint(0, 4)
    return normalize(SetOf(tuple(_expr(rng, depth - 1) for _ in range(n))))


def _mu(rng: random.Random, classical: bool) -> float:
    if classical:
        return rng.choice((0.0, -0.0, 1.0))
    return rng.choice(SPECIAL) if rng.random() < 0.5 else rng.random()


def _base(rng: random.Random, classical: bool = False) -> FuzzySet:
    """Level-0 memberships for the atoms (one sometimes missing), and
    sometimes stored values for braced atoms at other levels and sets."""
    listed = {
        Braced(a, 0): _mu(rng, classical)
        for a in ATOMS
        if rng.random() > 0.1
    }
    for _ in range(rng.choice((0, 0, 1, 3))):
        e = _expr(rng, 2)
        if not isinstance(e, SetOf) and not (isinstance(e, Braced) and e.level):
            continue  # ∅ must be 1, and level 0 is listed above
        listed[e] = _mu(rng, classical)
    pairs = list(listed.items())
    rng.shuffle(pairs)
    return FuzzySet.build(AtomUniverse(ATOMS), pairs)


def _outcome(fn):
    try:
        return "ok", fn()
    except MissingMembershipError as exc:
        return MissingMembershipError, str(exc)


def _bits(values) -> list[str]:
    return [float.hex(v) for v in values]


def test_propagate_membership_matches_reference():
    rng = random.Random(20261018)
    outcomes = {"ok": 0, MissingMembershipError: 0}
    for _ in range(300):
        base = _base(rng)
        table, sets_listed = legacy.lookup_table(base)
        for _ in range(10):
            e = _expr(rng, 4)
            want = _outcome(lambda: float.hex(legacy.propagate(table, sets_listed, e)))
            got = _outcome(lambda: float.hex(propagate_membership(base, e)))
            assert got == want, (base, e)
            outcomes[want[0]] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_construct_matches_reference():
    rng = random.Random(7)
    outcomes = {"ok": 0, MissingMembershipError: 0}
    for _ in range(150):
        base = _base(rng)
        # wide: many braced elements share an atom, so ladders are reused
        universe = list(dict.fromkeys(_expr(rng, rng.choice((1, 3))) for _ in range(40)))
        table, sets_listed = legacy.lookup_table(base)
        want = _outcome(
            lambda: _bits(legacy.propagate(table, sets_listed, e) for e in universe)
        )
        got = _outcome(
            lambda: _bits(mu for _, mu in construct_fuzzy_set(base, universe).elements)
        )
        assert got == want, base
        outcomes[want[0]] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_classical_degeneracy_matches_reference():
    rng = random.Random(99)
    for _ in range(150):
        base = _base(rng, classical=True)
        probes = [_expr(rng, 3) for _ in range(20)]
        zero = {
            e.atom for e, mu in base.elements
            if isinstance(e, Braced) and e.level == 0 and mu == 0.0
        }
        table, sets_listed = legacy.lookup_table(base)

        def reference():
            worst = 0.0
            for e in probes:
                expected = 0.0 if any(a in zero for a in atoms_of(e)) else 1.0
                worst = max(worst, abs(legacy.propagate(table, sets_listed, e) - expected))
            return float.hex(worst)

        got = _outcome(
            lambda: float.hex(verify_classical_degeneracy(base, probes).computed)
        )
        assert got == _outcome(reference), base


# ------------------------------------------------------- raw expressions

PAIR = SetOf((Braced("x1", 0), Braced("x2", 0)))


def _raw(rng: random.Random, depth: int):
    """An expression as a caller may build it: braces over braced atoms,
    and members repeated as the same node and as equal copies."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return _expr(rng, 0)
    if roll < 0.5:
        inner = _raw(rng, depth - 1)
        level = rng.randint(-3, 3)
        if isinstance(inner, Braced):
            return Braced(inner, level)  # folded when it is built
        # a level belongs to an atom: a Braced over a set or ∅ is refused
        # when it is built, at level 0 too, so the set stands alone
        with pytest.raises(LevelError, match="^a level belongs to an atom, not to "):
            Braced(inner, 0)
        return inner
    members = [_raw(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if members:
        members += [rng.choice(members) for _ in range(rng.randint(0, 2))]
        members += [normalize(rng.choice(members)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(members)
    return SetOf(tuple(members))


def _both(base: FuzzySet, raw) -> tuple:
    """The reference's outcome for normalize(raw), and the package's for raw."""
    table, sets_listed = legacy.lookup_table(base)
    e = normalize(raw)
    want = _outcome(lambda: float.hex(legacy.propagate(table, sets_listed, e)))
    got = _outcome(lambda: float.hex(propagate_membership(base, raw)))
    return got, want


def test_raw_expressions_match_reference():
    rng = random.Random(18)
    outcomes = {"ok": 0, MissingMembershipError: 0}
    for _ in range(200):
        base = _base(rng)
        for _ in range(5):
            raw = _raw(rng, 4)
            got, want = _both(base, raw)
            assert got == want, (base, raw)
            outcomes[want[0]] += 1
    assert min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "listed",
    [(), (("{{x1,x2}}", 0.25),)],
    ids=["flat", "wrap-listed"],
)
def test_raw_braced_sets_match_reference(k, listed):
    # a level belongs to an atom: k braces over a set are refused when
    # they are built, before any membership is looked up, and its k wraps
    # are written as sets
    pairs = [(Braced("x1", 0), 0.3), (Braced("x2", 0), 0.6)]
    pairs += [(parse_expr(text), mu) for text, mu in listed]
    base = FuzzySet.build(AtomUniverse(ATOMS), pairs)
    lacking = FuzzySet.build(AtomUniverse(ATOMS), pairs[:1])
    refusal = (LevelError, "a level belongs to an atom, not to a set")
    for raw in (
        lambda: Braced(PAIR, k),
        lambda: SetOf((Braced(PAIR, k), Braced("x1", 1))),
    ):
        for b in (base, lacking):
            with pytest.raises(LevelError) as info:
                propagate_membership(b, raw())
            assert (type(info.value), str(info.value)) == refusal
    wrapped = PAIR
    for _ in range(k):
        wrapped = SetOf((wrapped,))
    for raw in (wrapped, SetOf((wrapped, Braced("x1", 1)))):
        got, want = _both(base, raw)
        assert got == want and want[0] == "ok"
    if listed and k == 1:  # the one wrap is listed: it keeps its value
        assert propagate_membership(base, SetOf((PAIR,))) == 0.25
    got, want = _both(lacking, wrapped)
    assert got == want == (MissingMembershipError, "atom 'x2' has no base membership")


def test_raw_braced_set_of_many_wraps(monkeypatch):
    # many braces over a set are refused when they are built: no factor
    # is computed, the set's own or a wrap's
    k = 10**5
    base = FuzzySet.flat([("x1", 0.3), ("x2", 0.6)])
    factors = []

    def counted(v):
        factors.append(v)
        return 2.0 ** v - 1.0

    monkeypatch.setattr(fuzzy_core, "_up", counted)
    with pytest.raises(LevelError) as info:
        propagate_membership(base, Braced(PAIR, k))
    assert type(info.value) is LevelError
    assert str(info.value) == "a level belongs to an atom, not to a set"
    assert factors == []


# ------------------------------------------------------------- step count


def _level_value_steps(t: float, k: int) -> int:
    """How many map evaluations level_value(t, k) makes."""
    if t == 0.0 or t == 1.0:
        return 0
    v, steps = t, 0
    for _ in range(abs(k)):
        nxt = 2.0 ** v - 1.0 if k > 0 else math.log2(v + 1.0)
        steps += 1
        if nxt == v:
            break
        v = nxt
    return steps


@pytest.fixture
def propagations(monkeypatch):
    """Every _Propagation a call makes, kept for inspection afterwards."""
    made = []

    class Recorded(fuzzy_core._Propagation):
        __slots__ = ()

        def __init__(self, base):
            super().__init__(base)
            made.append(self)

    monkeypatch.setattr(fuzzy_core, "_Propagation", Recorded)
    return made


def _steps(ladders: dict) -> dict:
    # every rung after the first is one evaluation of the map
    return {atom: len(rungs) - 1 for atom, rungs in ladders.items()}


@pytest.mark.parametrize("top", [40, 300, 10**8])
def test_one_call_walks_each_ladder_once(propagations, top):
    base = FuzzySet.flat([("x", 0.3), ("y", 0.6)])
    near = min(top, 149)
    levels = sorted({*range(-near, near + 1), top, -top})
    pair = SetOf((Braced("y", 0), EMPTY))
    universe = [Braced("x", k) for k in levels]
    universe += [normalize(SetOf((Braced("x", k), Braced("y", k % 7 - 3)))) for k in levels]
    universe += [normalize(SetOf((Braced("x", -k), pair))) for k in levels]
    fs = construct_fuzzy_set(base, universe)
    (p,) = propagations
    # one walk up and one down per atom, however many elements ask
    assert _steps(p.up)["x"] <= top and _steps(p.down)["x"] <= top
    assert _steps(p.up) == {"x": _level_value_steps(0.3, top), "y": 3}
    assert _steps(p.down) == {"x": _level_value_steps(0.3, -top), "y": 3}
    assert max(len(rungs) for rungs in [*p.up.values(), *p.down.values()]) <= 200
    n = sum(atom == "x" for e, _ in fs.elements for atom in atoms_of(e))
    assert n >= 3 * len(levels)
    # where each element started from t, the same memberships took many more
    each_from_t = sum(_level_value_steps(0.3, k) for k in levels)
    assert sum(_steps(p.up).values()) + sum(_steps(p.down).values()) < each_from_t / 10


def test_ladders_last_one_call(propagations):
    base = FuzzySet.flat([("x", 0.3)])
    for k in (5, 9):
        propagate_membership(base, Braced("x", k))
    first, second = propagations
    assert _steps(first.up) == {"x": 5} and _steps(second.up) == {"x": 9}
