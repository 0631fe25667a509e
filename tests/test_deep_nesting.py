"""Expressions nested 400 and 5000 sets deep: past what the recursive
parser, normalize and printer could take under the default recursion
limit, and past the recursion of the nodes' ``==`` and ``hash``.

Every reference here is iterative, so it holds at any depth. Trees are
compared with an iterative walk or by printed text, not ``==``: the
dataclass-generated ``__eq__`` recurses and fails on two distinct trees
this deep. The library itself tells elements apart by printed text, so
building, reading back, propagating and the classical check hold at
depth 5000 too.
"""

import json
import math
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from fuzznest import (
    Braced,
    DuplicateElementError,
    FuzzySet,
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
