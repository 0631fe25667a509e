"""Expressions nested 400 sets deep: past what the recursive parser,
normalize and printer could take under the default recursion limit.

Every reference here is iterative, so it holds at any depth. Trees are
compared with an iterative walk, not ``==``: the dataclass-generated
``__eq__`` recurses and fails on two distinct trees this deep.
"""

import json
import random

import pytest

from fuzznest import (
    Braced,
    FuzzySet,
    SetOf,
    atoms_of,
    in_superstructure,
    iterate_level,
    normalize,
    parse_expr,
    print_expr,
    propagate_membership,
    structural_depth,
)
from fuzznest.cli import main

DEPTH = 400
MU = {"x1": 0.55, "x2": 0.8, "x3": 0.3, "x4": 0.65, "one": 1.0}
# Every set lowers a membership below 1 (2^m - 1 < m), and in floating
# point 2^m - 1 is exactly 0 once m < 1e-16. So atoms below the top
# FRACTIONAL levels have membership 1, which every level map keeps: the
# deep part propagates to exactly 1 and the top levels give a value that
# is neither 0 nor 1.
FRACTIONAL = 12


def _same_tree(a, b) -> bool:
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, SetOf):
            if len(x.elements) != len(y.elements):
                return False
            todo.extend(zip(x.elements, y.elements))
        elif x != y:  # leaves: Empty or Braced over an atom name
            return False
    return True


def _atom_text(name: str, k: int) -> str:
    if k == 0:
        return name
    return "{%s}" % name if k == 1 else "{%s}^(%d)" % (name, k)


@pytest.fixture(scope="module")
def chain():
    """DEPTH nested sets, each holding an atom and the next set down.

    Returns the text, the raw tree, the structural depth and the
    product-rule membership, all built bottom-up without recursion.
    """
    rng = random.Random(400)
    name, k = "one", rng.randint(-5, 5)
    text, raw = _atom_text(name, k), Braced(name, k)
    depth, mu = k, iterate_level(MU[name], k)
    for i in range(DEPTH):
        name = rng.choice(sorted(MU)) if i >= DEPTH - FRACTIONAL else "one"
        k = rng.randint(-3, 3)
        text = "{%s,%s}" % (_atom_text(name, k), text)
        raw = SetOf((Braced(name, k), raw))
        depth = 1 + max(k, depth)
        # two factors: their product does not depend on member order
        mu = (2.0 ** iterate_level(MU[name], k) - 1.0) * (2.0**mu - 1.0)
    return text, raw, depth, mu


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
    base = FuzzySet.flat(sorted(MU.items()))
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
