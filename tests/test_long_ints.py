"""Ints past the interpreter's int-to-text digit limit, in input and in
error messages.

``json.loads`` refuses an integer literal of more digits than
``sys.get_int_max_str_digits()`` with a bare ValueError; the JSON
readers raise ParseError for it instead, and the CLI exits 2. ``repr``
of such an int raises the same ValueError; a message that shows a
caller's value writes it with ``errors._shown``, so the caller gets the
error the message belongs to. With no limit, neither fault exists: the
JSON tests are skipped, and the messages hold the value's repr.
"""

import pytest

from fuzznest import (
    AtomUniverse,
    Braced,
    ConfigError,
    DomainError,
    FuzzySet,
    InvariantError,
    LevelError,
    ParseError,
    RangeError,
    SetOf,
    VerificationReport,
    encode,
    fuzzyset_from_json,
    iterate_level,
    parse_sequence,
    sequence_from_json,
    series_cardinality,
    verify_classical_degeneracy,
)
from fuzznest.cli import main
from helpers import HUGE_LEVEL, INT_DIGIT_LIMIT

BIG = 10 ** len(HUGE_LEVEL)  # an int of more digits than the limit
SHOWN = "<int too long to print>" if INT_DIGIT_LIMIT else repr(BIG)
SHOWN_LIST = "<list too long to print>" if INT_DIGIT_LIMIT else repr([BIG])
TOO_MANY_DIGITS = "invalid JSON: an integer has too many digits (byte offset 0)"
needs_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="this interpreter reads ints of any length"
)

FUZZY_SETS = {
    "mu": '{"atoms":["x"],"elements":[{"expr":"x","mu":%s}]}',
    "ignored key": '{"atoms":["x"],"elements":[],"note":%s}',
    "ignored row key": '{"atoms":["x"],"elements":[{"expr":"x","mu":1,"n":-%s}]}',
}
SEQUENCES = {
    "m_star": '{"m_star":%s,"bits":[1]}',
    "bit": '{"m_star":0,"bits":[1,%s]}',
    "ignored key": '{"m_star":0,"bits":[1],"value":%s}',
}


@needs_limit
@pytest.mark.parametrize("template", FUZZY_SETS.values(), ids=FUZZY_SETS)
def test_fuzzyset_from_json_refuses_a_huge_integer(template):
    with pytest.raises(ParseError) as info:
        fuzzyset_from_json(template % HUGE_LEVEL)
    assert (str(info.value), info.value.offset) == (TOO_MANY_DIGITS, 0)


@needs_limit
@pytest.mark.parametrize("template", SEQUENCES.values(), ids=SEQUENCES)
def test_sequence_from_json_refuses_a_huge_integer(template):
    with pytest.raises(ParseError) as info:
        sequence_from_json(template % HUGE_LEVEL)
    assert (str(info.value), info.value.offset) == (TOO_MANY_DIGITS, 0)


@needs_limit
@pytest.mark.parametrize(
    "argv", [["card"], ["propagate", "x"], ["powerset"]], ids=lambda a: a[0]
)
def test_cli_reading_a_fuzzy_set_with_a_huge_integer_exits_2(argv, capsys, tmp_path):
    path = tmp_path / "base.json"
    path.write_text(FUZZY_SETS["mu"] % HUGE_LEVEL, encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {TOO_MANY_DIGITS}\n")


@needs_limit
def test_cli_decoding_a_huge_m_star_exits_2(capsys):
    code = main(["decode", SEQUENCES["m_star"] % HUGE_LEVEL])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {TOO_MANY_DIGITS}\n")


SEQ = parse_sequence("|1")
SITES = {
    "FuzzySet.flat": (
        lambda: FuzzySet.flat([("x", BIG)]),
        InvariantError, f"membership {SHOWN} for x is outside [0,1]",
    ),
    "FuzzySet.flat, not a number": (
        lambda: FuzzySet.flat([("x", [BIG])]),
        InvariantError, f"membership {SHOWN_LIST} for x is not a number",
    ),
    "iterate_level t": (
        lambda: iterate_level(BIG, 1),
        RangeError, f"t must be in [0,1], got {SHOWN}",
    ),
    "iterate_level k": (
        lambda: iterate_level(0.5, [BIG]),
        RangeError, f"k must be an integer, got {SHOWN_LIST}",
    ),
    "series_cardinality": (
        lambda: series_cardinality(SEQ, BIG),
        RangeError, f"t must be in [0,1], got {SHOWN}",
    ),
    "encode": (lambda: encode(BIG), RangeError, f"w must be in (0,1], got {SHOWN}"),
    "Braced atom": (
        lambda: Braced(BIG, 0), TypeError, f"not a set expression: {SHOWN}"
    ),
    "Braced level": (
        lambda: Braced("x", [BIG]),
        LevelError, f"level must be an integer, got {SHOWN_LIST}",
    ),
    "SetOf": (
        lambda: SetOf((BIG,)), TypeError, f"not a set expression: {SHOWN}"
    ),
    "AtomUniverse name": (
        lambda: AtomUniverse((BIG,)), InvariantError, f"invalid atom name {SHOWN}"
    ),
    "AtomUniverse atoms": (
        lambda: AtomUniverse(BIG),
        InvariantError, f"atoms must be a collection of names, not {SHOWN}",
    ),
    "VerificationReport": (
        lambda: VerificationReport("law", [BIG], 0.0, 0.0),
        ConfigError, f"computed must be a number, got {SHOWN_LIST}",
    ),
    "verify_classical_degeneracy": (
        lambda: verify_classical_degeneracy(
            FuzzySet(AtomUniverse(("x",)), ("x",), (BIG,)), []
        ),
        DomainError, f"base is not classical: mu(x) = {SHOWN}",
    ),
}


@pytest.mark.parametrize("make, kind, message", SITES.values(), ids=SITES)
def test_a_huge_int_in_a_message_keeps_the_error_it_belongs_to(make, kind, message):
    with pytest.raises(Exception) as info:
        make()
    assert (type(info.value), str(info.value)) == (kind, message)
