"""tools/code_lines.py: which lines of a Python file count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''\
"""A module docstring,
over two lines."""

# a comment
import os


def f(x):
    """A function docstring."""
    # a comment
    s = """a string
over two lines"""
    return (x,
            s)

"not a docstring" + os.sep
"""A string statement after a dedent, as a docstring is."""
'''
# the import, the def, both lines of the assigned string, both lines of
# the return, and the string expression that is not a lone string
COUNTED = 7


def test_counts_code_lines_but_not_docstrings_comments_or_layout(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert code_lines.code_lines(path) == COUNTED


def test_prints_each_file_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        [str(COUNTED), str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        [str(COUNTED + 1), "total"],
    ]
