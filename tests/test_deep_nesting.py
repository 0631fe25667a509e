"""Expressions nested 400 and 5000 sets deep: past what the recursive
parser, normalize and printer could take under the default recursion
limit, and past what the dataclass-generated, recursive ``==`` and
``hash`` of the nodes could take.

Every reference here is iterative, so it holds at any depth. Trees are
compared with ``_same_tree``, an iterative walk that never calls a
node's own ``==``, or by printed text. ``_same_tree`` is also the
reference for the nodes' ``==`` and ``hash``, which read one post-order
walk of each tree: on seeded raw pairs, and at depth 5000 with
``FuzzySet.membership_table()``. The library itself tells elements apart
by printed text, so building, reading back, propagating and the
classical check hold at depth 5000 too.
"""

import copy
import json
import math
import pickle
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from fuzznest import (
    EMPTY,
    Braced,
    DuplicateElementError,
    Empty,
    FuzzySet,
    LevelError,
    SetOf,
    atoms_of,
    construct_fuzzy_set,
    fuzzyset_from_json,
    fuzzyset_to_json,
    in_superstructure,
    iterate_level,
    normalize,
    parse_expr,
    print_expr,
    propagate_membership,
    structural_depth,
    verify_classical_degeneracy,
)
from fuzznest.cli import main

DEPTH = 400
DEEP = 5000
MU = {"x1": 0.55, "x2": 0.8, "x3": 0.3, "x4": 0.65, "one": 1.0}
# Every set lowers a membership below 1 (2^m - 1 < m), and in floating
# point 2^m - 1 is exactly 0 once m < 1e-16. So atoms below the top
# FRACTIONAL levels have membership 1, which every level map keeps: the
# deep part propagates to exactly 1 and the top levels give a value that
# is neither 0 nor 1.
FRACTIONAL = 12


def _same_tree(a, b) -> bool:
    """a == b as the dataclass-generated ``==`` meant it, the same kinds
    with fields equal by ``==``, without calling a node's own ``==``."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, SetOf):
            if len(x.elements) != len(y.elements):
                return False
            todo.extend(zip(x.elements, y.elements))
        elif isinstance(x, Braced):
            if x.level != y.level:
                return False
            todo.append((x.atom, y.atom))
        elif not isinstance(x, Empty) and x != y:  # atom names
            return False
    return True


def _atom_text(name: str, k: int) -> str:
    if k == 0:
        return name
    return "{%s}" % name if k == 1 else "{%s}^(%d)" % (name, k)


def _chain(levels: int, seed: int):
    """`levels` nested sets, each holding an atom and the next set down.

    Returns the text, the raw tree, the structural depth and the
    product-rule membership, all built bottom-up without recursion.
    """
    rng = random.Random(seed)
    name, k = "one", rng.randint(-5, 5)
    text, raw = _atom_text(name, k), Braced(name, k)
    depth, mu = k, iterate_level(MU[name], k)
    for i in range(levels):
        name = rng.choice(sorted(MU)) if i >= levels - FRACTIONAL else "one"
        k = rng.randint(-3, 3)
        text = "{%s,%s}" % (_atom_text(name, k), text)
        raw = SetOf((Braced(name, k), raw))
        depth = 1 + max(k, depth)
        # two factors: their product does not depend on member order
        mu = (2.0 ** iterate_level(MU[name], k) - 1.0) * (2.0**mu - 1.0)
    return text, raw, depth, mu


@pytest.fixture(scope="module")
def chain():
    return _chain(DEPTH, 400)


@pytest.fixture(scope="module")
def deep():
    """The DEEP chain, with its canonical tree and printed text."""
    text, raw, depth, mu = _chain(DEEP, 5000)
    e = parse_expr(text)
    return SimpleNamespace(raw=raw, e=e, printed=print_expr(e), depth=depth, mu=mu)


def _base() -> FuzzySet:
    return FuzzySet.flat(sorted(MU.items()))


def test_parse_at_depth_400(chain):
    text, _, depth, _ = chain
    e = parse_expr(text)
    assert structural_depth(e) == depth >= DEPTH
    atoms = set(atoms_of(e))
    assert "one" in atoms and atoms <= set(MU)


def test_normalize_raw_chain_at_depth_400(chain):
    text, raw, depth, _ = chain
    e = normalize(raw)
    assert structural_depth(e) == depth
    assert _same_tree(e, parse_expr(text))
    assert _same_tree(normalize(e), e)


def test_print_parse_roundtrip_at_depth_400(chain):
    text, _, _, _ = chain
    e = parse_expr(text)
    printed = print_expr(e)
    assert printed.count("{") == printed.count("}") >= DEPTH
    assert _same_tree(parse_expr(printed), e)
    assert print_expr(parse_expr(printed)) == printed


def test_propagate_at_depth_400(chain):
    text, _, _, want = chain
    base = _base()
    e = parse_expr(text)
    assert in_superstructure(e, base.universe)
    assert 1e-6 < want < 1.0  # the comparison is not about 0 or 1
    assert propagate_membership(base, e) == want


def test_cli_parse_json_at_depth_400(chain, capsys):
    text, _, depth, _ = chain
    assert main(["parse", text, "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["depth"] == depth
    assert doc["canonical"] == print_expr(parse_expr(text))


# --------------------------------------------------------- node == and hash

# a level is an int: Braced refuses 1.0 and True when it is built
_LEVELS = (0, 1, 2, -1, -3)


def _raw(rng: random.Random, depth: int):
    """A small raw tree: braced atoms, ∅, sets and Braced nodes over a
    braced atom, which fold into a braced atom when they are built."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return EMPTY if roll < 0.05 else Braced(rng.choice("xy"), rng.choice(_LEVELS))
    if roll < 0.45:
        inner = Braced(rng.choice("xy"), rng.choice(_LEVELS))
        return Braced(inner, rng.choice(_LEVELS))
    return SetOf(tuple(_raw(rng, depth - 1) for _ in range(rng.randint(0, 3))))


def _copy(e, change):
    """A tree built anew from e, each new node passed through change."""
    if isinstance(e, SetOf):
        e = SetOf(tuple(_copy(x, change) for x in e.elements))
    elif isinstance(e, Braced):
        e = Braced(e.atom, e.level)
    else:
        e = Empty()
    return change(e)


def _edit_node(at: int, shift: int):
    """A change for _copy that edits only the at-th node it is given: a
    braced node gets another level, a set loses its last member or gains
    ∅, and ∅ becomes an atom."""
    seen = []

    def change(node):
        seen.append(node)
        if len(seen) != at:
            return node
        if isinstance(node, Braced):
            return Braced(node.atom, node.level + shift)
        if isinstance(node, SetOf):
            return SetOf(node.elements[:-1] if node.elements else (EMPTY,))
        return Braced("x", 0)

    return change, seen


def test_eq_and_hash_match_an_independent_walk():
    rng = random.Random(1919)
    equal = unequal = 0
    for _ in range(2000):
        a = _raw(rng, rng.randint(1, 4))
        counting, seen = _edit_node(0, 0)  # edits no node, counts them
        twin = _copy(a, counting)
        edit, _ = _edit_node(rng.randint(1, len(seen)), rng.choice((1, -1)))
        edited = _copy(a, edit)
        assert _same_tree(a, twin) and not _same_tree(a, edited)
        for b in (twin, edited, _raw(rng, rng.randint(0, 2))):
            same = _same_tree(a, b)
            assert (a == b, a != b, b == a) == (same, not same, same)
            if same:
                assert hash(a) == hash(b)
                equal += 1
            else:
                unequal += 1
    # twins are equal and edits unequal; the independent pairs match by
    # chance now and then
    assert equal > 2000 and unequal > 3500


def test_eq_keeps_the_generated_meaning_across_kinds():
    # another kind is NotImplemented, so == falls back to identity
    assert Braced("x", 1).__eq__(SetOf((Braced("x", 0),))) is NotImplemented
    assert EMPTY != SetOf(()) and Braced("x", 0) != "x"
    # 1.0 and True are no level to hash alike with 1: Braced refuses them
    for level in (1.0, True):
        with pytest.raises(LevelError, match=f"^level must be an integer, got {level}$"):
            Braced("x", level)
    # a Braced over a braced atom is the folded node; over ∅ it is refused
    assert Braced(Braced("x", 0), 2) == Braced("x", 2)
    for empty in (EMPTY, Empty()):
        with pytest.raises(LevelError, match="not to the empty set$"):
            Braced(empty, 2)


def test_eq_tells_apart_the_same_nodes_nested_differently():
    # each pair walks the same kinds of node in the same order; only the
    # member counts, or which nodes take a member, tell them apart
    x, hollow = Braced("x", 0), SetOf(())
    pairs = [
        (SetOf((x, hollow)), SetOf((SetOf((x,)),))),
        (SetOf((SetOf((x, EMPTY)),)), SetOf((x, SetOf((EMPTY,))))),
        (SetOf((SetOf((x,)), SetOf((EMPTY,)))), SetOf((SetOf((x, SetOf((EMPTY,)))),))),
    ]
    # a Braced takes no set or ∅ to nest: it is refused when it is built
    for inner in (hollow, EMPTY):
        with pytest.raises(LevelError, match="^a level belongs to an atom"):
            Braced(inner, 0)
    assert Braced(x, 1) == Braced("x", 1)
    for a, b in pairs:
        assert not _same_tree(a, b)
        assert a != b and not a == b


# ------------------------------------------------------------ depth 5000


def test_construct_at_depth_5000(deep):
    assert structural_depth(deep.e) == deep.depth >= DEEP
    assert 1e-6 < deep.mu < 1.0
    fs = construct_fuzzy_set(_base(), [deep.raw, Braced("x1", 2)])
    (e, mu), _ = fs.elements
    assert print_expr(e) == deep.printed and mu == deep.mu
    with pytest.raises(DuplicateElementError):
        construct_fuzzy_set(_base(), [deep.e, deep.raw])


def test_build_at_depth_5000(deep):
    base = _base()
    fs = FuzzySet.build(base.universe, [*base.elements, (deep.raw, 0.25)])
    assert [print_expr(e) for e, _ in fs.elements[-2:]] == ["x4", deep.printed]
    with pytest.raises(DuplicateElementError):
        FuzzySet.build(base.universe, [(deep.e, 0.25), (deep.raw, 0.5)])


def test_json_roundtrip_at_depth_5000(deep):
    base = _base()
    fs = FuzzySet.build(base.universe, [*base.elements, (deep.e, 0.25)])
    back = fuzzyset_from_json(fuzzyset_to_json(fs))
    assert back.universe == fs.universe
    assert [(print_expr(e), mu) for e, mu in back.elements] == [
        (print_expr(e), mu) for e, mu in fs.elements
    ]


def test_propagate_over_a_base_listing_the_deep_set(deep):
    base = _base()
    listing = FuzzySet.build(base.universe, [*base.elements, (deep.e, 0.25)])
    assert propagate_membership(base, deep.e) == deep.mu
    assert propagate_membership(listing, deep.e) == 0.25
    outer = SetOf((deep.e, Braced("x2", 0)))
    want = (2.0**0.25 - 1.0) * (2.0 ** MU["x2"] - 1.0)
    assert propagate_membership(listing, outer) == want
    (_, mu), = construct_fuzzy_set(listing, [outer]).elements
    assert mu == want


def test_classical_degeneracy_at_depth_5000(deep):
    # every atom of the chain is 1, so it propagates to exactly 1, and a
    # 0-atom beside it at the top makes exactly 0
    classical = FuzzySet.flat([*((name, 1.0) for name in sorted(MU)), ("zero", 0.0)])
    probes = [deep.raw, SetOf((Braced("zero", 0), deep.e))]
    report = verify_classical_degeneracy(classical, probes)
    assert report.passed and report.computed == 0.0
    assert [propagate_membership(classical, p) for p in probes] == [1.0, 0.0]


def _innermost_level_raised(chain):
    """The chain built anew, but for one more brace on its innermost atom."""
    spine = []
    while isinstance(chain, SetOf):
        spine.append(chain.elements[0])
        chain = chain.elements[1]
    chain = Braced(chain.atom, chain.level + 1)
    for atom in reversed(spine):
        chain = SetOf((atom, chain))
    return chain


def test_eq_and_hash_at_depth_5000(deep):
    twin = _chain(DEEP, 5000)[1]
    changed = _innermost_level_raised(deep.raw)
    assert twin is not deep.raw and twin == deep.raw and not twin != deep.raw
    assert changed != deep.raw and not changed == deep.raw
    assert hash(twin) == hash(deep.raw)
    assert _same_tree(twin, deep.raw) and not _same_tree(changed, deep.raw)
    assert normalize(deep.raw) == deep.e


def test_membership_table_at_depth_5000(deep):
    base = _base()
    fs = FuzzySet.build(base.universe, [*base.elements, (deep.raw, 0.25)])
    table = fs.membership_table()
    assert len(table) == len(fs.elements)
    assert table[parse_expr(deep.printed)] == 0.25
    assert table[Braced("x1", 0)] == MU["x1"]


def _chain_repr(raw) -> str:
    """The generated repr of a _chain tree, written level by level."""
    heads, x = [], raw
    while isinstance(x, SetOf):
        atom, x = x.elements
        heads.append("SetOf(elements=(%r, " % atom)  # a shallow Braced
    return "".join(heads) + repr(x) + "))" * len(heads)


def test_repr_pickle_and_copy_at_depth_5000(deep):
    assert sys.getrecursionlimit() < DEEP
    assert repr(deep.raw) == _chain_repr(deep.raw)
    with pytest.raises(LevelError, match="^a level belongs to an atom, not to a set$"):
        Braced(deep.raw, 2)
    wrapped = SetOf((deep.raw,))
    assert repr(wrapped) == "SetOf(elements=(%s,))" % _chain_repr(deep.raw)
    for e in (deep.raw, deep.e, wrapped):
        for back in (
            pickle.loads(pickle.dumps(e)),
            pickle.loads(pickle.dumps(e, protocol=0)),
            copy.deepcopy(e),
        ):
            assert back is not e and back == e and _same_tree(back, e)
    assert print_expr(pickle.loads(pickle.dumps(deep.e))) == deep.printed


def _fuzznest(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fuzznest", *argv],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )


def test_cli_at_depth_5000(deep, tmp_path):
    rows = [{"expr": name, "mu": mu} for name, mu in sorted(MU.items())]
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps({"atoms": sorted(MU), "elements": rows}))
    listing_path = tmp_path / "deep.json"
    listing_path.write_text(
        json.dumps({
            "atoms": sorted(MU),
            "elements": [*rows, {"expr": deep.printed, "mu": 0.25}],
        })
    )

    card = _fuzznest("card", str(listing_path), "--json")
    assert (card.returncode, card.stderr) == (0, "")
    assert json.loads(card.stdout)["cardinality"] == math.fsum([*MU.values(), 0.25])

    power = _fuzznest("powerset", str(listing_path))
    assert power.returncode == 2 and power.stdout == ""
    assert power.stderr.startswith("error: operation needs a flat fuzzy set")
    assert "Traceback" not in power.stderr

    propagated = _fuzznest("propagate", str(base_path), deep.printed, "--json")
    assert (propagated.returncode, propagated.stderr) == (0, "")
    assert json.loads(propagated.stdout) == {
        "elements": [{"expr": deep.printed, "mu": deep.mu}]
    }
