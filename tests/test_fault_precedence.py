"""Which error an element with two faults raises.

The base lists x, w, {x,y} and {{y}} in the universe x, y, w, so y is
unlisted (its propagation misses a membership) and z is foreign. Each
case below combines two faults; the table says, by hand, which error
each entry point raises and with which message:

- a level over a set comes first: its Braced node is refused with
  LevelError when it is built, before any entry point reads it;
- then an element with a foreign atom raises UniverseError, whatever
  else it holds;
- then an element whose value needs an unlisted atom raises
  MissingMembershipError;
- construct_fuzzy_set raises DuplicateElementError for an element whose
  text an earlier element has, and takes its elements in order, so an
  earlier fault wins; a repeated faulty element raises at its first
  occurrence.

propagate_membership and verify_classical_degeneracy take no list of
elements to repeat, so each raises the first fault of the table's
elements taken one by one.
"""

import pytest

from fuzznest import (
    AtomUniverse,
    Braced,
    DuplicateElementError,
    FuzzySet,
    LevelError,
    MissingMembershipError,
    SetOf,
    UniverseError,
    construct_fuzzy_set,
    parse_expr,
    propagate_membership,
    verify_classical_degeneracy,
)

U = AtomUniverse(("x", "y", "w"))
LISTED = ["x", "w", "{x,y}", "{{y}}"]


def _base(memberships):
    pairs = zip(map(parse_expr, LISTED), memberships)
    return FuzzySet.build(U, pairs)


BASE = _base((0.3, 0.6, 0.25, 0.5))
CLASSICAL = _base((1, 0, 1, 0))
X, Y, Z = (Braced(a, 0) for a in "xyz")


def _foreign(text):
    return UniverseError, f"{text} uses atoms outside the universe"


MISSING_Y = MissingMembershipError, "atom 'y' has no base membership"

LEVEL_ON_A_SET = LevelError, "a level belongs to an atom, not to a set"

# (the elements, built by each entry point's call, construct_fuzzy_set's
# error, the first error one by one)
CASES = {
    "foreign and missing": (
        lambda: [SetOf((Y, Z))], _foreign("{y,z}"), _foreign("{y,z}")
    ),
    "missing and foreign": (
        lambda: [SetOf((Z, Y))], _foreign("{y,z}"), _foreign("{y,z}")
    ),
    "foreign beside a listed set": (
        lambda: [SetOf((Z, parse_expr("{x,y}")))],
        _foreign("{z,{x,y}}"),
        _foreign("{z,{x,y}}"),
    ),
    "raw Braced over missing and foreign": (
        lambda: [Braced(SetOf((Y, Z)), 2)], LEVEL_ON_A_SET, LEVEL_ON_A_SET
    ),
    "foreign, then its duplicate": (lambda: [Z, Z], _foreign("z"), _foreign("z")),
    "duplicate, then foreign": (
        lambda: [X, X, Z],
        (DuplicateElementError, "duplicate element x"),
        _foreign("z"),
    ),
    "missing, repeated": (lambda: [Y, parse_expr("y")], MISSING_Y, MISSING_Y),
    "negative level over a set with a foreign atom": (
        lambda: [Braced(SetOf((X, Z)), -1)], LEVEL_ON_A_SET, LEVEL_ON_A_SET
    ),
}


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def _first_raised(call, exprs):
    def each():
        for e in exprs():
            call(e)

    return _raised(each)


@pytest.mark.parametrize("exprs, together, alone", CASES.values(), ids=list(CASES))
def test_a_two_fault_element_raises_by_the_table(exprs, together, alone):
    assert _raised(lambda: construct_fuzzy_set(BASE, exprs())) == together
    assert _first_raised(lambda e: propagate_membership(BASE, e), exprs) == alone
    assert _first_raised(
        lambda e: verify_classical_degeneracy(CLASSICAL, [e]), exprs
    ) == alone
    assert _raised(lambda: verify_classical_degeneracy(CLASSICAL, exprs())) == alone
