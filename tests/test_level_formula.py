"""The level map is written out in one place.

Each ``src/fuzznest/*.py`` is parsed with ``ast``. A power with base 2
(``2.0 ** v``) or a call of ``log2`` may occur only inside the function
that ALLOWED names: the step pair ``_up``/``_down``, ``_series``, which
writes its steps inline for speed, and ``_power_report``, whose
``2.0 ** scalar_cardinality`` is the power-set law's right-hand side.
A change of the map's formula then edits the step pair and this list.
"""

import ast
from pathlib import Path

import pytest

from helpers import sites

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzznest"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {"_up", "_down", "_series", "_power_report"}


def _is_map_site(node: ast.AST) -> bool:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base = node.left
        return (
            isinstance(base, ast.Constant)
            and type(base.value) in (int, float)
            and base.value == 2
        )
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Name) and f.id == "log2") or (
            isinstance(f, ast.Attribute) and f.attr == "log2"
        )
    return False


def _map_sites(source: str) -> list[tuple[str, int]]:
    return sites(source, _is_map_site)


def test_the_scan_finds_a_planted_site():
    source = (
        "import math\n"
        "from math import log2\n"
        "def _up(v):\n"
        "    return 2.0 ** v - 1.0\n"
        "def factor(mu):\n"
        '    """2.0 ** mu - 1.0 in a docstring is no site."""\n'
        "    return mu ** 2 + 2 ** mu\n"
        "class Ladder:\n"
        "    def down(self, v):\n"
        "        return math.log2(v + 1.0) + log2(v)\n"
        "EDGE = 2.0 ** -52\n"
    )
    assert _map_sites(source) == [
        ("_up", 4), ("factor", 7), ("Ladder.down", 10), ("Ladder.down", 10),
        ("<module>", 11),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_map_is_written_only_in_its_allowed_functions(path):
    sites = _map_sites(path.read_text(encoding="utf-8"))
    assert [(f, line) for f, line in sites if f not in ALLOWED] == []
