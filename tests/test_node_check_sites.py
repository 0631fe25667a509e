"""Every node is checked once, when it is built.

``SetOf.__init__`` refuses a member that is not a node, and
``Braced.__init__`` a level that is not an int and anything it
cannot wrap, so no walk, printer or fold checks a node again.
``_post_order``, where every walk starts, checks only the root it is
given. Each module of the package is parsed with ``ast``: a call of
``_not_a_node`` may lie only in ALLOWED.
"""

import ast
from pathlib import Path

import pytest

from helpers import sites

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzznest"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {"Braced.__init__", "SetOf.__init__", "_post_order"}


def _is_node_check(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_not_a_node"
    )


def _stray_node_checks(source: str) -> list[tuple[str, int]]:
    """(scope, line) of every call of _not_a_node outside ALLOWED."""
    return [(f, line) for f, line in sites(source, _is_node_check) if f not in ALLOWED]


def test_the_scan_finds_a_planted_use():
    source = (
        "class SetOf:\n"
        "    def __init__(self, elements):\n"
        "        raise _not_a_node(self.elements[0])\n"
        "def _post_order(e):\n"
        "    raise _not_a_node(e)\n"
        "def print_expr(e):\n"
        '    """_not_a_node(x) in a docstring is no call."""\n'
        "    for x in _post_order(e):\n"
        "        if not isinstance(x, SetOf):\n"
        "            raise _not_a_node(x)\n"
        "def _not_a_node(x):\n"
        "    return TypeError(x)\n"
        "class Empty:\n"
        "    def __post_init__(self):\n"
        "        _not_a_node(self)\n"
        "CHECK = _not_a_node(7)\n"
    )
    assert _stray_node_checks(source) == [
        ("print_expr", 10), ("Empty.__post_init__", 15), ("<module>", 16),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_constructors_and_the_root_check_check_a_node(path):
    source = path.read_text(encoding="utf-8")
    assert _stray_node_checks(source) == []
    # each allowed site is used: the two constructors and the root check
    if path.name == "set_expr.py":
        assert {f for f, _ in sites(source, _is_node_check)} == ALLOWED
