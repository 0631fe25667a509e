"""One validated maker, and a propagation hook that only values items.

``fuzzy_core.py`` is parsed with ``ast``, and three kinds of site must
lie in the functions ALLOWED names for them:

- a use of ``in_superstructure`` (a call, or the name passed on): the
  validated maker ``FuzzySet._from_canonical``, and
  ``_Propagation.element``, which walks an element whose value stayed a
  stand-in, to tell a foreign atom from an unlisted one;
- a fuzzy set built from elements, ``cls(...)`` or ``FuzzySet(...)``:
  ``FuzzySet._from_canonical`` only, so every maker of the module
  checks its elements there;
- ``FuzzySet.__new__`` (or ``cls.__new__``): ``fuzzy_power_set`` only,
  whose listing is texts and memberships with no elements to check.

Imports are no use.
"""

import ast
from pathlib import Path

import pytest

from helpers import sites

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzznest"
FUZZY_CORE = SRC / "fuzzy_core.py"
FUZZY_SET = {"FuzzySet", "cls"}


def _is_universe_check(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "in_superstructure") or (
        isinstance(node, ast.Attribute) and node.attr == "in_superstructure"
    )


def _is_fuzzy_set_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in FUZZY_SET
    )


def _is_bare_new(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id in FUZZY_SET
    )


RULES = {
    "in_superstructure": (
        _is_universe_check,
        {"FuzzySet._from_canonical", "_Propagation.element"},
    ),
    "a FuzzySet from elements": (_is_fuzzy_set_call, {"FuzzySet._from_canonical"}),
    "FuzzySet.__new__": (_is_bare_new, {"fuzzy_power_set"}),
}


def _stray_sites(source: str) -> dict[str, list[tuple[str, int]]]:
    """For each rule, the (scope, line) of every site outside its allowed
    functions."""
    return {
        rule: [(f, line) for f, line in sites(source, is_site) if f not in allowed]
        for rule, (is_site, allowed) in RULES.items()
    }


def test_the_scan_finds_a_planted_use():
    source = (
        "from .set_expr import in_superstructure\n"
        "from . import set_expr\n"
        "class FuzzySet:\n"
        "    @classmethod\n"
        "    def _from_canonical(cls, universe, pairs):\n"
        "        if not in_superstructure(pairs[0][0], universe):\n"
        "            raise ValueError\n"
        "        return cls(universe, tuple(pairs))\n"
        "    @classmethod\n"
        "    def flat(cls, pairs):\n"
        '        """in_superstructure and cls(...) in a docstring are no use."""\n'
        "        return cls(None, tuple(pairs))\n"
        "class _Propagation:\n"
        "    def made(self, item, inner):\n"
        "        return set_expr.in_superstructure(item[0], self.universe)\n"
        "    def element(self, expr):\n"
        "        return in_superstructure(expr, self.universe)\n"
        "def construct_fuzzy_set(base, exprs):\n"
        "    check = in_superstructure\n"
        "    return FuzzySet(base.universe, tuple(exprs))\n"
        "def fuzzy_power_set(base):\n"
        "    return FuzzySet.__new__(FuzzySet)\n"
        "EMPTY = FuzzySet.__new__(FuzzySet)\n"
    )
    assert _stray_sites(source) == {
        "in_superstructure": [("_Propagation.made", 15), ("construct_fuzzy_set", 19)],
        "a FuzzySet from elements": [
            ("FuzzySet.flat", 12), ("construct_fuzzy_set", 20)
        ],
        "FuzzySet.__new__": [("<module>", 23)],
    }


@pytest.mark.parametrize("rule", RULES)
def test_fuzzy_core_keeps_the_maker_rules(rule):
    assert _stray_sites(FUZZY_CORE.read_text(encoding="utf-8"))[rule] == []
