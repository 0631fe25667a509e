"""An element's printed form has one home.

The fuzzy set keeps its elements' texts (``FuzzySet.texts``), so the
layers above set_expr read them instead of printing again. Each of
``fuzzy_core.py`` and ``cli.py`` is parsed with ``ast``, and every use of
``print_expr`` (a call, or the name passed on, as to ``map``) must lie in
a function that ALLOWED names: ``FuzzySet.__getattr__``, which prints
the elements of a fuzzy set whose maker kept no texts, at the first read
of ``texts``. Imports are no use.
"""

import ast
from pathlib import Path

import pytest

from helpers import sites

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzznest"
MODULES = [SRC / "fuzzy_core.py", SRC / "cli.py"]
ALLOWED = {"FuzzySet.__getattr__"}


def _is_print_site(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "print_expr") or (
        isinstance(node, ast.Attribute) and node.attr == "print_expr"
    )


def _print_sites(source: str) -> list[tuple[str, int]]:
    return sites(source, _is_print_site)


def test_the_scan_finds_a_planted_use():
    source = (
        "from .set_expr import print_expr\n"
        "from . import set_expr\n"
        "class FuzzySet:\n"
        "    @property\n"
        "    def texts(self):\n"
        "        return tuple([print_expr(e) for e, _ in self.elements])\n"
        "def _element_rows(fs):\n"
        '    """print_expr in a docstring is no use."""\n'
        "    return list(map(print_expr, fs.elements))\n"
        "def _base_row(base):\n"
        "    return [set_expr.print_expr(e) for e, _ in base.elements]\n"
        "HEAD = print_expr(None)\n"
    )
    assert _print_sites(source) == [
        ("FuzzySet.texts", 6), ("_element_rows", 9), ("_base_row", 11),
        ("<module>", 12),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_print_expr_is_used_only_in_its_allowed_functions(path):
    sites = _print_sites(path.read_text(encoding="utf-8"))
    assert [(f, line) for f, line in sites if f not in ALLOWED] == []
