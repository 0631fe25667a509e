"""What a Braced wraps is decided in one place.

``Braced.__post_init__`` folds a Braced over a braced atom and refuses
one over anything but an atom name, so every Braced holds a str atom and
no tree walk asks what it wraps. Each of ``set_expr.py`` and
``fuzzy_core.py`` is parsed with ``ast``: a call of ``isinstance`` or
``type`` whose first argument is an ``.atom`` attribute may lie only in
ALLOWED.
"""

import ast
from pathlib import Path

import pytest

from helpers import sites

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzznest"
MODULES = [SRC / "set_expr.py", SRC / "fuzzy_core.py"]
ALLOWED = {"Braced.__post_init__"}


def _is_atom_kind_site(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "type")
        and bool(node.args)
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "atom"
    )


def _stray_atom_kind_sites(source: str) -> list[tuple[str, int]]:
    """(scope, line) of every test of an atom's kind outside ALLOWED."""
    return [
        (f, line) for f, line in sites(source, _is_atom_kind_site) if f not in ALLOWED
    ]


def test_the_scan_finds_a_planted_use():
    source = (
        "class Braced:\n"
        "    def __post_init__(self):\n"
        "        if isinstance(self.atom, str):\n"
        "            return\n"
        "def _post_order(e):\n"
        "    for x in e:\n"
        "        if isinstance(x, Braced) and not isinstance(x.atom, str):\n"
        "            pass\n"
        "def atoms_of(e):\n"
        '    """isinstance(x.atom, str) in a docstring is no test."""\n'
        "    return [x.atom for x in e if type(x.atom) is str]\n"
        "def _shape(x):\n"
        "    return isinstance(x, Braced), x.atom\n"
        "KIND = type(EMPTY.atom)\n"
    )
    assert _stray_atom_kind_sites(source) == [
        ("_post_order", 7), ("atoms_of", 11), ("<module>", 14),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_braced_asks_what_a_braced_wraps(path):
    source = path.read_text(encoding="utf-8")
    assert _stray_atom_kind_sites(source) == []
    # the one allowed site is where the fold and the refusals are
    if path.name == "set_expr.py":
        assert {f for f, _ in sites(source, _is_atom_kind_site)} == ALLOWED
