"""The README's library tour and CLI session run, and give what they show.

The tour is the first ``python`` block after the "## Library tour"
heading. Its statements run in order in one namespace, and the value of
each expression statement is kept under its source text. The session is
the first ``text`` block after "A session:": each ``$ fuzznest`` line
runs through ``cli.main`` and must print the lines below it. The command
table is the first ``text`` block after "## CLI": each option it names
in parentheses must be an option of that command's parser.
"""

import argparse
import ast
import re
import shlex
from pathlib import Path

from fuzznest import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _run(source: str) -> tuple[dict[str, object], dict[str, object]]:
    """The tour's namespace, and each expression statement's value."""
    namespace: dict[str, object] = {}
    values = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(source, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values


def test_the_library_tour_gives_what_its_comments_state():
    namespace, values = _run(_tour())
    memberships = namespace["built"].memberships
    assert [round(mu, 6) for mu in memberships] == [0.148698, 0.057790, 0.008138]
    assert values["built.texts"] == ("{x1,∅}", "{{x2},{x3}}", "{x1,{x2,{x3,{x4}}}}")
    assert values["verify_power_cardinality(flat, tol=1e-9).passed"] is True
    listing = values["fuzzy_power_set(flat).texts"]
    assert (listing[0], listing[1], listing[-1]) == ("∅", "{x1}", "{x1,x2,x3}")
    assert len(listing) == 2**3
    assert repr(values["decode(a)"]).startswith("0.32218058")
    expansion = values["expand_to_fuzzy(a).elements"]
    assert [str(e) for e, _ in expansion] == ["{x}^(-2)", "x", "{x}^(2)"]
    assert abs(sum(mu for _, mu in expansion) - 1.0) <= 1e-9
    assert values["encode(0.3).nonzero_indices"][:5] == (-4, 0, 5, 15, 20)


def _session() -> list[tuple[str, str]]:
    """Each command of the README's CLI session and the output it shows."""
    section = README.read_text(encoding="utf-8").split("A session:", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    runs = re.findall(r"^\$ fuzznest (.*)\n((?:.+\n)*)", block, re.M)
    assert len(runs) == block.count("$ fuzznest") > 0
    return runs


def test_the_cli_session_prints_what_it_shows(capsys):
    for command, shown in _session():
        capsys.readouterr()
        assert cli.main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == shown, command


def _command_table() -> dict[str, str]:
    """Each command of the README's CLI table and its description, with
    the lines that continue it."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    return dict(re.findall(r"^(\S+) +(.*(?:\n .*)*)", block, re.M))


def test_the_cli_table_names_only_options_of_its_commands():
    parsers = next(
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    table = _command_table()
    assert set(table) == set(parsers)
    named = 0
    for command, text in table.items():
        options = {o for a in parsers[command]._actions for o in a.option_strings}
        for group in re.findall(r"\(([^)]*)\)", text):
            for option in re.findall(r"--[a-z-]+", group):
                assert option in options, (command, option)
                named += 1
    assert named > 0
