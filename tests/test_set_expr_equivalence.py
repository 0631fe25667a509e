"""The one-pass canonicalizer and the token-loop parser against the
recursive algorithms they replaced (frozen in legacy_set_expr.py).

Seeded random raw trees and texts, small enough for the recursive
reference: results must be equal with ``==`` and print identically, and
failures must raise the same exception class with the same message (and,
for ParseError, the same byte offset).
"""

import random
import re

import pytest

from fuzznest import (
    EMPTY,
    Braced,
    LevelError,
    ParseError,
    SetOf,
    normalize,
    parse_expr,
    print_expr,
)

import legacy_set_expr as legacy

ATOMS = ("x1", "x2", "y", "z0")


def _raw_tree(rng: random.Random, depth: int, refused: list | None = None):
    """A raw (not canonical) tree: duplicates, Braced over braced atoms,
    singleton sets, shuffled members and, rarely, a value that is not a
    node at all. A Braced drawn over a set, ∅ or such a value is refused
    when it is built: its error class and message go to refused, if
    given, and a Braced over a braced atom is drawn in its place."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        leaf = rng.random()
        if leaf < 0.2:
            return EMPTY
        if leaf < 0.97:
            return Braced(rng.choice(ATOMS), rng.randint(-3, 3))
        return rng.choice((7, "x1", None))
    if roll < 0.45:
        # a Braced over a braced atom, folded when it is built
        inner = _raw_tree(rng, depth - 1, refused)
        level = rng.randint(-3, 3)
        if not isinstance(inner, (str, Braced)):
            refusal = _outcome(lambda _: Braced(inner, level), None)[:2]
            if refused is not None:
                refused.append(refusal)
            inner = Braced(rng.choice(ATOMS), rng.randint(-3, 3))
        return Braced(inner, level)
    n = rng.choice((0, 1, 1, 2, 3, 4, 5))
    members = [_raw_tree(rng, depth - 1, refused) for _ in range(n)]
    if members and rng.random() < 0.4:
        # a duplicate: the same object or a structurally equal copy
        twin = rng.choice(members)
        members.append(twin if rng.random() < 0.5 else _copy(twin))
    rng.shuffle(members)
    return SetOf(tuple(members))


def _copy(e):
    if isinstance(e, SetOf):
        return SetOf(tuple(_copy(x) for x in e.elements))
    if isinstance(e, Braced):
        return Braced(e.atom, e.level)
    return e


def _outcome(fn, arg):
    try:
        return "ok", fn(arg)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def test_normalize_matches_recursive_reference():
    rng = random.Random(20260301)
    kinds = {"ok": 0, LevelError: 0, TypeError: 0}
    refused = []
    for _ in range(1000):
        tree = _raw_tree(rng, rng.randint(1, 5), refused)
        want = _outcome(legacy.normalize, tree)
        got = _outcome(normalize, tree)
        assert got[0] == want[0], tree
        kinds[want[0]] += 1
        if want[0] == "ok":
            assert got[1] == want[1], tree
            assert print_expr(got[1]) == legacy.print_expr(want[1]), tree
        else:
            assert got[1:] == want[1:], tree
    # the generator reaches every outcome often enough to mean something;
    # a level over a set or ∅ is refused when its Braced is built, so no
    # tree that can be built gives normalize a LevelError
    assert kinds["ok"] >= 500 and kinds[LevelError] == 0 and kinds[TypeError] >= 20
    assert set(refused) <= {
        (LevelError, "a level belongs to an atom, not to a set"),
        (LevelError, "a level belongs to an atom, not to the empty set"),
        (TypeError, "not a set expression: 7"),
        (TypeError, "not a set expression: None"),
    }
    assert sum(kind is LevelError for kind, _ in refused) >= 50


def test_normalize_keeps_the_reference_element_order():
    # (structural depth, printed form) is the order _sort_key gave
    rng = random.Random(11)
    for _ in range(300):
        tree = _raw_tree(rng, 4)
        try:
            e = normalize(tree)
        except (LevelError, TypeError):
            continue
        if isinstance(e, SetOf):
            keys = [legacy._sort_key(x) for x in e.elements]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


_FRAGMENTS = ("{", "{", "}", "}", ",", ",", "^", "(", ")", "∅", "é", " ", "\t", "\u00a0",
              "x1", "y", "2", "-", "+", "0", "empty", "^(2)", "^(-1)", "^(0)")


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.random()
        at = rng.randint(0, len(chars))
        if op < 0.4:
            chars.insert(at, rng.choice(_FRAGMENTS))
        elif op < 0.7 and chars:
            del chars[min(at, len(chars) - 1)]
        elif chars:
            chars[min(at, len(chars) - 1)] = rng.choice(_FRAGMENTS)
    return "".join(chars)


_BRACED_ATOM = re.compile(r"\{(\w+)\}(?:\^\((-?\d+)\))?")
_SPACES = ("", "", " ", "\t", "\u00a0", "  ")


def _spaced(rng: random.Random, text: str) -> str:
    """The text with whitespace, some of it non-ASCII, at random places
    inside and around its braced atoms, where the grammar allows it."""

    def respace(m: re.Match) -> str:
        gaps = [rng.choice(_SPACES) for _ in range(6)]
        out = "{%s%s%s}" % (gaps[0], m[1], gaps[1])
        if m[2] is not None:
            out += "%s^%s(%s%s%s)" % (gaps[2], gaps[3], gaps[4], m[2], gaps[5])
        return out

    return _BRACED_ATOM.sub(respace, text)


def _texts(rng: random.Random):
    """Printed canonical trees, the same with spaced-out braced atoms,
    levels written every way the grammar allows, and mutations of them."""
    for _ in range(1500):
        try:
            text = legacy.print_expr(legacy.normalize(_raw_tree(rng, 4)))
        except (LevelError, TypeError):
            continue
        yield text
        yield text.replace(",", " , ").replace("{", "{ ")
        spaced = _spaced(rng, text)
        yield spaced
        yield _mutate(rng, text)
        yield _mutate(rng, text)
        yield _mutate(rng, spaced)
    for level in ("3", "+2", "-1", "0", " -4 ", "0007"):
        for around in ("{x}^(%s)", "{ x }^ (%s)", "{{x}^(%s)}", "{{x}^(%s)}^(2)",
                       "{x,{y}^(%s)}", "{{x}^(%s),{x}^(%s)}^(1)"):
            yield around.replace("%s", level)


def test_parse_matches_recursive_reference():
    rng = random.Random(4242)
    outcomes = {"ok": 0, ParseError: 0, LevelError: 0}
    for text in _texts(rng):
        want = _outcome(legacy.parse_expr, text)
        got = _outcome(parse_expr, text)
        assert got[0] == want[0], text
        outcomes[want[0]] += 1
        if want[0] == "ok":
            assert got[1] == want[1], text
            assert print_expr(got[1]) == legacy.print_expr(want[1]), text
        else:
            # message and byte offset byte-identical
            assert got[1:] == want[1:], text
    assert min(outcomes.values()) >= 100, outcomes


_EDGE_CASES = [
    "", "   ", "{", "{x1,", "{x1 x2}", "x y", "{x}^", "{x}^(", "{x}^(-",
    "{x}^(- 2)", "{x}^(2", "{x}^(2]", "é", "{∅,é}", "∅ ^(2)", "{x}^(1)^(2)",
    "{{x}^(1)}^(2)", "{{x}^(0)}^(3)", "{{{x}^(-1)}}^(2)", "{x,x}^(2)",
    "{}^(1)", "{empty}^(1)", "{x^(2)}", "{x}^(٣)", "{x }\t^ ( +5 )",
    # braced atoms, which the tokenizer reads whole, and near misses
    "{∅}^(2)", "{{a}^(0)}^(3)", "{a}^(2)^(3)", "{ a } ^ ( -2 )", "{a}^(+2)",
    "{a}^(+ 2)", "{a}^()", "{a}^(2", "{a}^", "{a}{b}", "{a}}", "{a}^(0)",
    "{ empty }", "{emptyx}^(2)", "{a}^(2) ^", "{{a}^(2),{a}^(-1)}", "{a}^(0)^(1)",
]


@pytest.mark.parametrize(
    "text",
    dict.fromkeys(
        _EDGE_CASES
        # the same behind a multi-byte character: offsets count bytes
        + ["\u00a0" + text for text in _EDGE_CASES]
        + ["{∅," + text + "}" for text in _EDGE_CASES]
        + ["é" + text for text in _EDGE_CASES]
    ),
)
def test_parse_edge_cases_match_reference(text):
    assert _outcome(parse_expr, text) == _outcome(legacy.parse_expr, text)


# --------------------------------------------------------------- printing

_LEVELS = (0, 1, 2, -1, -3, 5)


def _printer_cases(rng: random.Random):
    """Sets of braced atoms (any mix of levels, ∅ among them or not), and
    such sets with one nested member first, in the middle or last. Built
    as raw nodes, so the printer sees them exactly as given; a Braced
    over a Braced is folded when it is built."""
    for _ in range(400):
        members = [
            Braced(rng.choice(ATOMS), rng.choice(_LEVELS))
            for _ in range(rng.randint(0, 6))
        ]
        if rng.random() < 0.3:
            members.insert(rng.randint(0, len(members)), EMPTY)
        yield SetOf(tuple(members))
        for odd in (
            SetOf((Braced("y", 2), SetOf((Braced("x1", -1), EMPTY)))),
            SetOf(()),
            Braced(Braced("x2", 1), -2),
        ):
            for at in (0, len(members) // 2, len(members)):
                yield SetOf(tuple(members[:at]) + (odd,) + tuple(members[at:]))


def test_print_matches_recursive_reference():
    rng = random.Random(5150)
    for e in _printer_cases(rng):
        assert print_expr(e) == legacy.print_expr(e), e
    # the member no printer accepted, a Braced over a set, is refused
    # when it is built
    with pytest.raises(LevelError, match="^a level belongs to an atom, not to a set$"):
        Braced(SetOf((Braced("x1", 0),)), 1)

