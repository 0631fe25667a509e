"""Propagation from text in one pass, against parsing and then propagating.

``fuzzy_core._construct_from_texts`` reads each text with ``_parse``,
whose ``made`` hook hands every item to ``_Propagation.made`` as the
parser makes it. ``fuzznest propagate`` and ``fuzznest examples 1`` go
through it. It must give what ``construct_fuzzy_set(base,
[parse_expr(t) for t in texts])`` gives: the same texts, the same
memberships bit for bit, and the same exception class and message.
Counters show that it walks no tree and parses each text once, and a
depth-5000 text goes through the CLI without a RecursionError.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzznest import (
    AtomUniverse,
    FuzzySet,
    construct_fuzzy_set,
    fuzzyset_to_json,
    parse_expr,
)
from fuzznest import cli, fuzzy_core, set_expr
from fuzznest.cli import main

# y is in every universe but listed by no base; w is in none
UNIVERSE = AtomUniverse(("x1", "x2", "x3", "y"))
BASES = [
    FuzzySet.build(UNIVERSE, [(parse_expr(t), mu) for t, mu in rows])
    for rows in (
        [("x1", 0.2), ("x2", 0.3), ("x3", 0.5)],
        # listed sets and braced atoms, so rule 2 fires above level 0
        [("x1", 0.2), ("x2", 1.0), ("x3", 0.0), ("{x1,x2}", 0.75),
         ("{x1}^(2)", 0.125), ("{x2,{x3}}", 0.5), ("{y}", 0.25)],
        # x3 listed only inside sets, and a listed set over the unlisted y
        [("x1", 0.6), ("x2", 0.1), ("{x3}", 0.4), ("{x3,y}", 0.9), ("∅", 1.0)],
    )
]
LEAVES = [
    "x1", "x2", "x3", "y", "w", "∅", "empty", "{}", "{x1}", "{x3}",
    "{x2}^(2)", "{x1}^(-1)", "{x3}^(0)", "{{x1}^(0)}^(3)", "{ x2 }^( -2 )",
    "{y}", "{x1,x2}", "{x1,x1}", "{x1,x2,x1}",
]
MALFORMED = [
    "", "{", "}", "{x1,", "{x1}}", "x1^(2)", "{x1}^(", "{,}", "{x1 x2}",
    "{{x1,x2}}^(2)", "{x1}^(2)^(3)", "{x1,?}", "{x1}^(1" + "0" * 5000 + ")",
]


def _set_text(members, spaced):
    sep = ", " if spaced else ","
    return "{" + sep.join(members) + "}"


TEXTS = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.builds(
        _set_text, st.lists(inner, max_size=4), st.booleans()
    ),
    max_leaves=12,
)
ANY_TEXT = st.one_of(
    TEXTS,
    TEXTS.map(lambda t: f" \n{t}\t"),
    st.sampled_from(MALFORMED),
    st.builds(lambda t, cut: t[:cut], TEXTS, st.integers(0, 12)),
)


def _outcome(make):
    """The texts and float.hex memberships make() gives, or its exception's
    class and message."""
    try:
        fs = make()
    except Exception as ex:
        return type(ex), str(ex)
    return fs.texts, [mu.hex() for mu in fs.memberships]


def _node_path(base, texts):
    return construct_fuzzy_set(base, [parse_expr(t) for t in texts])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BASES), st.lists(ANY_TEXT, min_size=1, max_size=4))
def test_the_text_path_gives_what_parse_then_construct_gives(base, texts):
    expected = _outcome(lambda: _node_path(base, texts))
    assert _outcome(lambda: fuzzy_core._construct_from_texts(base, texts)) == expected


@pytest.mark.parametrize(
    "texts",
    [
        ["{x1,x2,x1}", "{x1,x1}", "{}", "∅"],
        ["{x2,x1}", "{x1,x2}"],  # one canonical form twice
        ["empty", "{{x1}^(0)}^(3)", "{x1}^(3)"],
        ["{x1,{x2,{x3}}}", " { x2 , { x3 } } "],
        ["{x1,y}", "{x1,w}"],  # unlisted, then foreign
        ["{x1,w}", "{x1,y}"],  # foreign, then unlisted
        ["{x1,y}", "{x1,"],  # a later text that does not parse wins
        ["{x1,x2}", "{{x1,x2}}", "{y}", "{{y}}"],
    ],
)
@pytest.mark.parametrize("base", BASES, ids=["flat", "sets", "partial"])
def test_the_text_path_on_chosen_texts(base, texts):
    expected = _outcome(lambda: _node_path(base, texts))
    assert _outcome(lambda: fuzzy_core._construct_from_texts(base, texts)) == expected


def test_cli_does_not_parse_and_then_construct():
    names = vars(cli)
    assert "parse_expr" not in names and "construct_fuzzy_set" not in names


@pytest.fixture
def counters(monkeypatch):
    """The number of _post_order walks and the texts _parse reads, from
    the moment the fixture is used."""
    counts = {"_post_order": 0, "_parse": []}
    post_order, parse = set_expr._post_order, fuzzy_core._parse

    def counted_post_order(e):
        counts["_post_order"] += 1
        return post_order(e)

    def counted_parse(text, *args):
        counts["_parse"].append(text)
        return parse(text, *args)

    monkeypatch.setattr(set_expr, "_post_order", counted_post_order)
    monkeypatch.setattr(fuzzy_core, "_parse", counted_parse)
    return counts


def test_propagate_walks_no_tree_and_parses_each_text_once(counters, capsys, tmp_path):
    base = BASES[1]
    path = tmp_path / "base.json"
    path.write_text(fuzzyset_to_json(base), encoding="utf-8")
    texts = ["{x1,x2,x3}", "{x1,{x2,{x3}^(4)}}", "{x1}^(-3)", "{{x1,x2}}", "∅"]
    counters["_parse"].clear()
    assert main(["propagate", str(path), *texts, "--json"]) == 0
    # the base file's rows, then each text once
    assert counters == {"_post_order": 0, "_parse": [*base.texts, *texts]}
    out = json.loads(capsys.readouterr().out)
    expected = _node_path(base, texts)
    assert [row["expr"] for row in out["elements"]] == list(expected.texts)
    assert [row["mu"] for row in out["elements"]] == list(expected.memberships)


def test_example_one_walks_no_tree_and_parses_each_text_once(counters, capsys):
    assert main(["examples", "1"]) == 0
    assert counters == {
        "_post_order": 0,
        "_parse": ["{∅,x1}", "{{x2},{x3}}", "{x1,{x2,{x3,{x4}}}}"],
    }
    assert "0.057790" in capsys.readouterr().out


def test_a_depth_5000_text_propagates_through_the_cli(capsys, tmp_path):
    base = BASES[0]
    path = tmp_path / "base.json"
    path.write_text(fuzzyset_to_json(base), encoding="utf-8")
    text = "{x1," * 5000 + "{x2}^(3)" + "}" * 5000
    assert main(["propagate", str(path), text, "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["elements"]
    expected = _node_path(base, [text])
    assert row["expr"] == expected.texts[0]
    assert row["mu"].hex() == expected.memberships[0].hex()
