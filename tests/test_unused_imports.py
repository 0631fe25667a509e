"""No module of the package imports a name it never uses.

Each ``src/fuzznest/*.py`` but ``__init__.py`` (whose star imports are
the re-exports) is parsed with ``ast``. A name bound by an import, other
than ``from __future__``, must be read somewhere as a name, as the base
of an attribute or as an entry of ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fuzznest"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    bound: list[str] = []
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):  # an attribute's base is a Name too
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, re, sys as system\n"
        "from json import dumps, loads as read\n"
        "__all__ = ['dumps']\n"
        "system.exit(os.path.join(read('1')))\n"
    )
    assert _unused_imports(source) == ["re"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
