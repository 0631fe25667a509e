"""One loop carries a value up a tree.

``_fold`` walks ``_post_order`` once and carries each subtree's value
up to its parent, so the canonical pass, ``print_expr``, ``repr`` and
``structural_depth`` are each a call of it. Each module of the package
is parsed with ``ast``: a ``for`` loop or a comprehension over
``_post_order(...)`` may lie only in ALLOWED, ``_fold`` and the two
walks that carry nothing up, ``_shape`` and ``atoms_of``.
"""

import ast
from pathlib import Path

import pytest

from helpers import sites

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzznest"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {"_fold", "_shape", "atoms_of"}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_post_order_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "_post_order") or (
        isinstance(f, ast.Attribute) and f.attr == "_post_order"
    )


def _is_walk(node: ast.AST) -> bool:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return _is_post_order_call(node.iter)
    if isinstance(node, _COMPREHENSIONS):
        return any(_is_post_order_call(g.iter) for g in node.generators)
    return False


def _stray_walks(source: str) -> list[tuple[str, int]]:
    """(scope, line) of every loop over _post_order(...) outside ALLOWED."""
    return [(f, line) for f, line in sites(source, _is_walk) if f not in ALLOWED]


def test_the_scan_finds_a_planted_use():
    source = (
        "def _fold(e, atom, members, empty):\n"
        "    for x in _post_order(e):\n"
        "        pass\n"
        "def print_expr(e):\n"
        '    """for x in _post_order(e) in a docstring is no loop."""\n'
        "    for x in _post_order(e):\n"
        "        pass\n"
        "def structural_depth(e):\n"
        "    return max(x.level for x in set_expr._post_order(e))\n"
        "class _Node:\n"
        "    def __repr__(self):\n"
        "        return [str(x) for y in () for x in _post_order(self)]\n"
        "def atoms_of(e):\n"
        "    return {x: 1 for x in _post_order(e)}\n"
        "def _count(e):\n"
        "    return len(_post_order(e))\n"
        "NODES = {x for x in _post_order(EMPTY)}\n"
    )
    assert _stray_walks(source) == [
        ("print_expr", 6), ("structural_depth", 9), ("_Node.__repr__", 12),
        ("<module>", 17),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_fold_and_the_plain_walks_loop_over_post_order(path):
    source = path.read_text(encoding="utf-8")
    assert _stray_walks(source) == []
    # each allowed site is used: the fold and the two plain walks
    if path.name == "set_expr.py":
        assert {f for f, _ in sites(source, _is_walk)} == ALLOWED
