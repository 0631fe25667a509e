"""Command-line behavior: exit codes, output streams, JSON, golden files."""

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzznest import (
    FuzzySet,
    SolverConfig,
    decode,
    fuzzyset_from_json,
    fuzzyset_to_json,
    parse_sequence,
    sequence_from_json,
    sequence_to_json,
    verify_power_cardinality,
)
from fuzznest import cli, fuzzy_core, seq_codec
from fuzznest.cli import main
from helpers import HUGE_LEVEL, INT_DIGIT_LIMIT

try:
    import resource
except ImportError:  # not a POSIX system
    resource = None

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def base4_path(tmp_path):
    base = FuzzySet.flat([("x1", 0.2), ("x2", 0.3), ("x3", 0.5), ("x4", 1.0)])
    p = tmp_path / "base4.json"
    p.write_text(fuzzyset_to_json(base), encoding="utf-8")
    return str(p)


@pytest.fixture
def base3_path(tmp_path):
    base = FuzzySet.flat([("x1", 0.2), ("x2", 0.3), ("x3", 0.5)])
    p = tmp_path / "base3.json"
    p.write_text(fuzzyset_to_json(base), encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------- parse


def test_parse_text(capsys):
    code, out, err = run(capsys, "parse", "{{x}}")
    assert code == 0 and err == ""
    assert out == "{x}^(2)\n"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "{x1,{x2}}", "--json")
    doc = json.loads(out)
    assert doc == {"input": "{x1,{x2}}", "canonical": "{x1,{x2}}", "depth": 2}


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "parse", "{x1,")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_level_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "{x,y}^(2)")
    assert code == 2 and "level" in err


# ------------------------------------------------------------- propagate


def test_propagate_table(capsys, base4_path):
    code, out, err = run(
        capsys, "propagate", base4_path, "{∅,x1}", "{{x2},{x3}}"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["{x1,∅}", "0.148698"]
    assert lines[1].split() == ["{{x2},{x3}}", "0.057790"]


def test_propagate_json(capsys, base4_path):
    code, out, _ = run(capsys, "propagate", base4_path, "{∅,x1}", "--json")
    doc = json.loads(out)
    assert doc["elements"][0]["expr"] == "{x1,∅}"
    assert abs(doc["elements"][0]["mu"] - 0.1486983549970351) < 1e-15


def test_propagate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "propagate", str(tmp_path / "nope.json"), "∅")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "content, error",
    [
        (b"[" * 100_000, "invalid JSON: nested too deeply (byte offset 0)"),
        (b"\xff\xfe{}", "invalid UTF-8: invalid start byte (byte offset 0)"),
        (
            b'{"atoms":["\xe9"],"elements":[]}',
            "invalid UTF-8: invalid continuation byte (byte offset 11)",
        ),
    ],
    ids=["deep", "not-utf8", "not-utf8-later"],
)
@pytest.mark.parametrize(
    "argv", [["card"], ["propagate", "∅"], ["powerset"]], ids=lambda a: a[0]
)
def test_unreadable_fuzzy_set_file_exit_2(argv, content, error, capsys, tmp_path):
    # both once ended in a traceback with exit 1
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_decode_too_deep_json_exit_2(capsys):
    text = '{"m_star":%s,"bits":[1]}' % ("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "decode", text)
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: nested too deeply (byte offset 0)\n"


# ------------------------------------------------------------ card/power


def test_card(capsys, base4_path):
    code, out, _ = run(capsys, "card", base4_path)
    assert code == 0 and out == "2.000000\n"
    code, out, _ = run(capsys, "card", base4_path, "--json")
    assert json.loads(out) == {"cardinality": 2.0}


def test_powerset_verify_pass(capsys, base3_path):
    code, out, _ = run(capsys, "powerset", base3_path, "--verify")
    assert code == 0
    assert "PASS (tol 1e-09)" in out
    assert out.count("\n") == 12  # 8 elements + 3 report rows + verdict


def test_powerset_json_report(capsys, base3_path):
    code, out, _ = run(
        capsys, "powerset", base3_path, "--verify", "--tol", "1e-12", "--json"
    )
    doc = json.loads(out)
    assert code == 0 and doc["report"]["pass"] is True
    assert len(doc["elements"]) == 8
    assert doc["elements"][0] == {"expr": "∅", "mu": 1.0}


def _count_listings(monkeypatch):
    """The arguments of each fuzzy_power_set call the CLI makes; a call of
    verify_power_cardinality fails the test."""
    calls = []
    enumerate_listing = fuzzy_core.fuzzy_power_set

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_listing(*args, **kwargs)

    def not_checked(*args, **kwargs):
        raise AssertionError("verify_power_cardinality was called")

    monkeypatch.setattr(cli, "fuzzy_power_set", counted)
    monkeypatch.setattr(cli, "verify_power_cardinality", not_checked)
    monkeypatch.setattr(fuzzy_core, "verify_power_cardinality", not_checked)
    return calls


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_powerset_enumerates_once(as_json, capsys, monkeypatch, base3_path):
    # the listing is fuzzy_power_set's, and the check reads its products
    calls = _count_listings(monkeypatch)
    argv = ["powerset", base3_path, "--verify"] + (["--json"] if as_json else [])
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "") and len(calls) == 1


def _wide_base_path(tmp_path, n: int) -> str:
    """A flat base of n atoms, written out."""
    base = FuzzySet.flat([(f"a{i}", 0.5) for i in range(n)])
    p = tmp_path / f"base{n}.json"
    p.write_text(fuzzyset_to_json(base), encoding="utf-8")
    return str(p)


def test_powerset_cap_error(capsys, tmp_path):
    for n in (21, 24):
        code, out, err = run(capsys, "powerset", _wide_base_path(tmp_path, n))
        assert (code, out) == (2, "")
        assert err == f"error: {n} atoms would enumerate 2^{n} subsets (cap is 20)\n"


def _limit_memory():
    # about 1 GiB of address space, set in the child before it starts
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_powerset_over_the_cap_exits_2_in_bounded_memory(tmp_path):
    # "--cap 24" once lifted the guard, and 2^24 subsets ended in a
    # MemoryError traceback and exit 1
    path = _wide_base_path(tmp_path, 24)
    for extra, said in (
        (["--cap", "24"], "unrecognized arguments: --cap 24"),
        ([], "error: 24 atoms would enumerate 2^24 subsets (cap is 20)"),
    ):
        out = subprocess.run(
            [sys.executable, "-m", "fuzznest", "powerset", path, *extra],
            capture_output=True,
            text=True,
            encoding="utf-8",
            preexec_fn=_limit_memory,
        )
        assert (out.returncode, out.stdout) == (2, ""), out.stderr
        assert "Traceback" not in out.stderr and said in out.stderr


@pytest.mark.parametrize("cap", ["-1", "2.5", "x"])
def test_powerset_cap_usage_error(cap, capsys, base3_path):
    # --cap is no option: the cap is POWER_SET_CAP
    with pytest.raises(SystemExit) as exc:
        main(["powerset", base3_path, "--cap", cap])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:") and "--cap" in captured.err


def test_powerset_rejects_non_flat(capsys, tmp_path, base4_path):
    deep = tmp_path / "deep.json"
    deep.write_text(
        '{"atoms":["x1"],"elements":[{"expr":"{x1}","mu":0.5},'
        '{"expr":"x1","mu":0.5}]}',
        encoding="utf-8",
    )
    code, _, err = run(capsys, "powerset", str(deep))
    assert code == 2 and "flat" in err


_NAMES = ("x1", "x2", "x10", "y", "z0")
_WRONG = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.lists(st.integers(0, 1), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(("mu", "expr")), st.integers(0, 1), max_size=2),
)
_MU = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
    # in range, out of range, and out of the range of a float
    st.sampled_from((0, 1, 2, -1, 10**400, -(10**400))),
    _WRONG,
)
_EXPR = st.one_of(
    st.sampled_from(_NAMES),
    st.sampled_from(("{x1}", "{x1,x2}", "∅", "{y}^(-2)", "{x1", "zz")),
    _WRONG,
)


@st.composite
def _base_docs(draw):
    """Base fuzzy-set JSON: mostly flat and well typed, else off in one
    or more ways (wrong types, extra or missing rows, duplicates)."""
    if draw(st.integers(0, 9)) == 0:  # over the power-set cap
        atoms = [f"a{i}" for i in range(draw(st.integers(21, 24)))]
    else:
        atoms = draw(st.lists(st.sampled_from(_NAMES), max_size=8))
    rows = [{"expr": a, "mu": draw(st.floats(0.0, 1.0))} for a in atoms]
    for _ in range(draw(st.integers(0, 2))):
        row = {"expr": draw(_EXPR), "mu": draw(_MU)}
        rows.insert(draw(st.integers(0, len(rows))), row)
    if rows and draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    doc = {"atoms": atoms, "elements": rows}
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(("atoms", "elements")))] = draw(_WRONG)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_base_docs())
def test_powerset_and_card_exit_cleanly_on_any_base(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("base") / "base.json"
    text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    for argv in (
        ["powerset", str(path), "--verify", "--json"],
        ["card", str(path)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
        if argv[0] == "powerset" and code != 2:
            report = verify_power_cardinality(fuzzyset_from_json(text), 1e-9)
            assert json.loads(out.getvalue())["report"] == {
                "label": report.label,
                "computed": report.computed,
                "expected": report.expected,
                "abs_diff": report.abs_diff,
                "tolerance": report.tolerance,
                "pass": report.passed,
            }
            assert code == (0 if report.passed else 1)


# ---------------------------------------------------------- encode/decode


def test_encode_text(capsys):
    code, out, _ = run(capsys, "encode", "0.3")
    assert code == 0
    rows = dict(
        (line.split(None, 1) + [""])[:2] for line in out.splitlines()
    )
    assert rows["m_star"] == "-4"
    assert rows["indices"].startswith("-4 0 5 15 20")
    assert rows["truncated"] == "no"


def test_encode_json_feeds_decode(capsys):
    code, out, _ = run(capsys, "encode", "0.3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["nonzero_indices"][:5] == [-4, 0, 5, 15, 20]
    assert abs(doc["residual"]) <= 1e-12
    code, out, _ = run(capsys, "decode", json.dumps(doc), "--json")
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.3) <= 1e-10


def test_decode_text(capsys):
    code, out, _ = run(capsys, "decode", "10|01", "--precision", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["value", "0.3222"]
    assert lines[1].split() == ["{x}^(-2)", "0.4884"]
    assert lines[-1].split() == ["cardinality", "1.0000"]


def test_decode_json_sequence_input(capsys):
    text = sequence_to_json(parse_sequence("|01001"))
    code, out, _ = run(capsys, "decode", text, "--json")
    doc = json.loads(out)
    assert code == 0 and abs(doc["value"] - 0.5087038303659028) < 1e-12
    assert [e["expr"] for e in doc["expansion"]] == ["x", "{x}^(2)", "{x}^(5)"]


def test_decode_malformed_exit_2(capsys):
    code, _, err = run(capsys, "decode", "1|0|1")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "0.3", "--tol", "inf"],
        ["encode", "0.3", "--tol", "nan"],
        ["decode", "10|01", "--tol", "1e400"],
        ["decode", "10|01", "--tol", "nan"],
    ],
)
def test_non_finite_tolerance_exit_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: tolerances must be finite and positive\n"


def _count_root_calls(monkeypatch):
    calls = []
    solve = seq_codec.series_root

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(seq_codec, "series_root", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "10|01"],
        ["decode", "10|01", "--json"],
        ["decode", "(1,0|1,0,1,1)", "--tol", "1e-300"],
        ["decode", '{"m_star":0,"bits":[1,0,1,0,0,1]}', "--json"],
    ],
)
def test_decode_solves_once(argv, capsys, monkeypatch):
    calls = _count_root_calls(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1


def test_decoding_example_solves_once_per_sequence(capsys, monkeypatch):
    calls = _count_root_calls(monkeypatch)
    code, _, _ = run(capsys, "examples", "3")
    assert code == 0 and len(calls) == 2


@pytest.mark.parametrize(
    "text", ["10|01", "|01001", "10|1011", "1|", "|1", "(1,0|1,0,1,1)", "|0100…"]
)
@pytest.mark.parametrize("tol", [None, "1e-4", "5e-324"])
def test_decode_value_is_the_library_value(text, tol, capsys):
    argv = ["decode", text, "--json"] + (["--tol", tol] if tol else [])
    code, out, _ = run(capsys, *argv)
    cfg = SolverConfig(tol_root=float(tol)) if tol else SolverConfig()
    want = decode(parse_sequence(text), cfg)
    assert code == 0
    assert float.hex(json.loads(out)["value"]) == float.hex(want)


_BITS = st.lists(st.integers(0, 1), max_size=100)
_TOL = st.one_of(
    st.sampled_from(("1e-12", "1e-4", "1e-300", "5e-324", "0", "-1e-9")),
    st.sampled_from(("nan", "inf", "-inf", "1e400", "tiny", "")),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def _sequence_texts(draw):
    """Sequence text, mostly well formed: "1" + left bits + "|" + right
    bits (at most 200 bits), sometimes with separators, parentheses, an
    ellipsis or a stray character, sometimes with a leading or trailing
    zero that breaks an invariant."""
    left = draw(_BITS)
    right = draw(_BITS)
    text = "".join(map(str, left)) + "|" + "".join(map(str, right))
    if left and draw(st.booleans()):
        text = "1" + text[1:]
    if right and draw(st.booleans()):
        text = text[:-1] + "1"
    if draw(st.integers(0, 4)) == 0:
        text += draw(st.sampled_from(("…", "...", ")", " ", ",0", "|")))
    if draw(st.integers(0, 4)) == 0:
        text = "(" + ",".join(text) + ")"
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("x.|(2 ")) + text[at:]
    return text


_JSON_WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.one_of(st.booleans(), st.floats(0, 1), st.none()), max_size=3),
)


@st.composite
def _sequence_jsons(draw):
    """The JSON form of a sequence of at most 200 bits, sometimes with a
    field of the wrong type or an inconsistent value, or one missing."""
    left = draw(_BITS)
    right = draw(_BITS)
    if right and draw(st.booleans()):
        right[-1] = 1
    doc = {"m_star": -len(left), "bits": [1] + left[1:] + [1] + right}
    if draw(st.booleans()):
        doc["truncated"] = draw(st.booleans())
    roll = draw(st.integers(0, 9))
    if roll == 0:
        doc[draw(st.sampled_from(("m_star", "bits", "truncated")))] = draw(_JSON_WRONG)
    elif roll == 1:
        doc["m_star"] = draw(st.integers(-201, 1))
    elif roll == 2 and doc["bits"]:
        at = draw(st.integers(0, len(doc["bits"]) - 1))
        doc["bits"][at] = draw(st.integers(-1, 2))
    elif roll == 3:
        del doc[draw(st.sampled_from(("m_star", "bits")))]
    return json.dumps(doc)


_VALUE = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(1e-12, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, 1.0, 1e-300, 5e-324, 1e-12, 1.0 - 1e-16, -1e-300)),
    st.floats(1e-310, 1e-290),
).map(repr)
_SMALL = st.integers(-1, 8).map(str)


def _slope_bound(seq, a: float, b: float) -> float:
    """An upper bound on G' over [a, b]. Below index 0 every level is
    concave in t, so its slope is largest at a; above index 0 every level
    is convex, so its slope is largest at b; u_0(t) = t has slope 1."""
    bound = 1.0
    v, d = a, 1.0
    for k in range(-1, seq.m_star - 1, -1):
        d /= math.log(2.0) * (v + 1.0)
        v = math.log2(v + 1.0)
        bound += d * seq.bit(k)
    v, d = b, 1.0
    for k in range(1, seq.last_index + 1):
        d *= math.log(2.0) * 2.0**v
        v = 2.0**v - 1.0
        bound += d * seq.bit(k)
    return bound


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(
    command=st.one_of(
        st.tuples(st.just("decode"), st.one_of(_sequence_texts(), _sequence_jsons())),
        st.tuples(st.just("encode"), _VALUE),
        st.tuples(st.just("roundtrip"), _VALUE),
    ),
    tol=st.one_of(st.none(), _TOL),
    max_terms=st.one_of(st.none(), _SMALL),
    max_index=st.one_of(st.none(), _SMALL),
    as_json=st.booleans(),
)
def test_codec_commands_exit_cleanly(command, tol, max_terms, max_index, as_json):
    name, arg = command
    argv = [name, arg] if name != "roundtrip" else [name, "--value", arg]
    if tol is not None:
        argv += ["--tol", tol]
    if max_terms is not None and name != "decode":
        argv += ["--max-terms", max_terms]
    if max_index is not None and name == "encode":
        argv += ["--max-index", max_index]
    if as_json or name == "decode":
        argv.append("--json")
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert "error: " in err and err.startswith(("error: ", "usage: ")), err
        return
    assert err == ""
    if name == "decode":
        assert code == 0
        doc = json.loads(out)
        value = doc["value"]
        assert 0.0 < value <= 1.0
        # decode promises the root to within tol_root, so G(value) may
        # miss 1 by up to tol_root times the slope of G next to value
        seq = sequence_from_json(arg) if arg.startswith("{") else parse_sequence(arg)
        tol_root = float(tol) if tol is not None else SolverConfig().tol_root
        slope = _slope_bound(seq, max(0.0, value - tol_root), min(1.0, value + tol_root))
        assert abs(doc["cardinality"] - 1.0) <= 1e-9 + tol_root * slope, argv


# Known codec defect: below index 0 the level walk computes log2(v + 1),
# which cancels for small v, so decode's root is off and the cardinality
# printed for it misses 1 by about 1e-9 (bits at -45, -40, -38, -28, -2,
# -1, 0; and at -46, -41, -40, -35, -3, -2, -1, 0). A log1p/expm1 level
# step should mend it; strict, so the mark has to go when it does.
@pytest.mark.xfail(strict=True, reason="log2(v + 1) cancels below index 0")
@pytest.mark.parametrize(
    "bits",
    [
        "(1,0,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0,0,0,0,0,0,0,0,0,1,1,|)",
        "(1,0,0,0,0,1,1,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0,0,0,0,0,0,0,0,0,1,1,1,|)",
    ],
    ids=["m45", "m46"],
)
def test_decode_deep_bits_meets_tol(bits):
    code, out, err = _run_quietly(["decode", bits, "--tol", "1e-300", "--json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    value = doc["value"]
    # the bound of test_codec_commands_exit_cleanly at tol_root = 1e-300
    slope = _slope_bound(parse_sequence(bits), value - 1e-300, value + 1e-300)
    assert abs(doc["cardinality"] - 1.0) <= 1e-9 + 1e-300 * slope


# ------------------------------------- parse, propagate, theorems, examples

_LEVEL = st.one_of(
    st.integers(-3, 3),
    st.sampled_from((-(10**30), -300, 300, 10**8, 10**30)),
).map(str)
_ATOM_TEXTS = _NAMES + ("∅", "empty", "zz", "x1_", "_")


def _expr_texts(atoms=_ATOM_TEXTS):
    """Expression text from the grammar over the given atom texts (a
    level on "∅" or "empty" is a level error), else broken: a missing or
    extra brace or comma, a level out of place, a stray character, or
    any text."""
    atom = st.sampled_from(atoms)
    braced = st.tuples(atom, _LEVEL).map(lambda t: "{%s}^(%s)" % t)
    tree = st.recursive(
        atom | braced,
        lambda inner: st.lists(inner, max_size=4).map(
            lambda xs: "{" + ",".join(xs) + "}"
        ),
        max_leaves=12,
    )
    broken = st.tuples(
        tree,
        st.integers(0, 100),
        st.sampled_from(("{", "}", ",", "^", "^(", "^(1)", "(", "-", "é", " ", "")),
    ).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :])
    return st.one_of(tree, tree, broken, st.text(max_size=8))


def _mostly(draw, good, bad):
    """A draw from good, or one time in five from bad."""
    return draw(bad) if draw(st.integers(0, 4)) == 0 else draw(good)


@st.composite
def _other_commands(draw):
    """argv for parse, propagate, verify-theorem or examples, mostly
    valid; a propagate base is returned as a JSON document to be written
    out."""
    name = draw(st.sampled_from(("parse", "propagate", "verify-theorem", "examples")))
    doc = None
    if name == "parse":
        argv = [name, draw(_expr_texts())]
    elif name == "propagate":
        flat = st.lists(st.sampled_from(_NAMES), min_size=1, unique=True).map(
            lambda names: {
                "atoms": names,
                "elements": [{"expr": a, "mu": 0.5} for a in names],
            }
        )
        doc = _mostly(draw, flat, _base_docs())
        atoms = doc["atoms"] if isinstance(doc["atoms"], list) else []
        names = tuple(a for a in atoms if isinstance(a, str))
        texts = _expr_texts(names + ("∅",))
        count = draw(st.integers(1, 3))
        exprs = [_mostly(draw, texts, _expr_texts()) for _ in range(count)]
        argv = [name, None] + exprs
    elif name == "verify-theorem":
        ids = st.sampled_from(("0", "3", "one"))
        argv = [name, _mostly(draw, st.sampled_from("12"), ids)]
        if draw(st.booleans()):
            trials = st.integers(1, 20).map(str)
            bad = st.sampled_from(("0", "-1", "x"))
            argv += ["--trials", _mostly(draw, trials, bad)]
        if draw(st.booleans()):
            argv += ["--seed", _mostly(draw, st.integers().map(str), st.just("1.5"))]
        if draw(st.booleans()):
            argv += ["--tol", draw(_TOL)]
    else:
        ids = st.sampled_from(("0", "5", "x"))
        argv = [name, _mostly(draw, st.sampled_from("1234"), ids)]
    if draw(st.booleans()):
        precision = st.integers(0, 20).map(str)
        bad = st.sampled_from(("-1", "x", "1.5"))
        argv += ["--precision", _mostly(draw, precision, bad)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, doc


@settings(max_examples=300, deadline=None)
@given(command=_other_commands())
def test_other_commands_exit_cleanly(tmp_path_factory, command):
    argv, doc = command
    if doc is not None:
        path = tmp_path_factory.mktemp("base") / "base.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv[1] = str(path)
    code, out, err = _run_quietly(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert "error: " in err and err.startswith(("error: ", "usage: ")), err
        return
    assert err == ""
    if argv[0] == "parse" and "--json" not in argv:
        # the canonical text is a fixed point of parse
        assert _run_quietly(["parse", out[:-1]]) == (0, out, "")


# ------------------------------------------------------------ roundtrip


def test_roundtrip_single_value(capsys):
    code, out, _ = run(capsys, "roundtrip", "--value", "0.3")
    assert code == 0 and "PASS" in out


def test_roundtrip_trials_pass_and_fail(capsys):
    code, out, _ = run(capsys, "roundtrip", "--count", "5", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True and doc["trials"] == 5
    code, out, _ = run(
        capsys, "roundtrip", "--count", "5", "--tol", "1e-18", "--json"
    )
    assert code == 1 and json.loads(out)["pass"] is False


def test_roundtrip_deterministic_seed(capsys):
    _, out1, _ = run(capsys, "roundtrip", "--count", "10", "--seed", "3", "--json")
    _, out2, _ = run(capsys, "roundtrip", "--count", "10", "--seed", "3", "--json")
    assert out1 == out2


# --------------------------------------------------------- verify-theorem


def test_verify_theorem_power_set(capsys):
    code, out, _ = run(capsys, "verify-theorem", "1", "--trials", "20", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert doc["max_abs_diff"] <= 1e-9


def test_verify_theorem_levels(capsys):
    code, out, _ = run(capsys, "verify-theorem", "2", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["max_abs_diff"] <= 1e-12


def test_verify_theorem_failure_exit_1(capsys):
    code, out, _ = run(capsys, "verify-theorem", "2", "--tol", "1e-20")
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------- others


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["encode"],
        ["roundtrip"],
        ["examples", "9"],
        ["verify-theorem", "3"],
        ["examples", "1", "--json"],  # examples prints text only
    ],
)
def test_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["roundtrip", "--count", "-5"],
        ["roundtrip", "--count", "0"],
        ["verify-theorem", "1", "--trials", "0"],
        ["verify-theorem", "2", "--trials", "-1"],
        ["verify-theorem", "1", "--trials", "many"],
    ],
)
def test_count_arguments_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "Traceback" not in captured.err
    assert ("--count" if "--count" in argv else "--trials") in captured.err


@pytest.mark.parametrize("precision", ["-1", "1075", "2147483648", "x"])
def test_precision_out_of_range_is_a_usage_error(precision, capsys):
    # 2147483648 once ended in "ValueError: precision too big" with exit 1
    with pytest.raises(SystemExit) as exc:
        main(["examples", "1", "--precision", precision])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:") and "--precision" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("precision", [0, 1074])
def test_precision_edges_are_accepted(precision, capsys):
    code, out, err = run(capsys, "decode", "10|01", "--precision", str(precision))
    assert code == 0 and err == ""
    value = out.splitlines()[0].split()[1]
    assert len(value.partition(".")[2]) == precision
    # 1074 places show a binary64 value exactly
    if precision == 1074:
        w = decode(parse_sequence("10|01"))
        assert value == f"{w:.2000f}".rstrip("0").ljust(len(value), "0")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "1e400", "-1", "-1e-9", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["powerset", None, "--verify"],
        ["roundtrip", "--value", "0.3"],
        ["roundtrip", "--count", "3"],
        ["verify-theorem", "1", "--trials", "3"],
        ["verify-theorem", "2", "--trials", "3"],
    ],
)
def test_verification_tolerance_must_be_finite_and_non_negative(
    argv, tol, base3_path, capsys
):
    # exit 1 means only that a verification failed, so a tolerance that
    # is not a finite number >= 0 is a usage error
    argv = [base3_path if a is None else a for a in argv] + ["--tol", tol]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:") and "--tol" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["powerset", None, "--verify"],
        ["roundtrip", "--value", "0.25"],
        ["verify-theorem", "2", "--trials", "3"],
    ],
)
def test_verification_tolerance_zero_is_accepted(argv, base3_path, capsys):
    argv = [base3_path if a is None else a for a in argv] + ["--tol", "0", "--json"]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    doc = json.loads(out)
    assert doc.get("report", doc)["tolerance"] == 0.0


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "fuzznest", "examples", "3"],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == (GOLDEN_DIR / "example3.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("template", ["{a}^(%s)", "{{a}^(0)}^(%s)"])
def test_parse_level_past_the_int_digit_limit_exits_2(template):
    text = template % HUGE_LEVEL
    out = subprocess.run(
        [sys.executable, "-m", "fuzznest", "parse", text],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    if not INT_DIGIT_LIMIT:  # no limit: int() cannot fail
        assert out.returncode == 0 and out.stderr == ""
        assert out.stdout == "{a}^(%s)\n" % HUGE_LEVEL
        return
    offset = template.index("%")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == f"error: level has too many digits (byte offset {offset})\n"


# ------------------------------------------------------------ golden files


@pytest.mark.parametrize("example_id", [1, 2, 3, 4])
def test_examples_match_golden(example_id, capsys):
    code, out, err = run(capsys, "examples", str(example_id))
    assert code == 0 and err == ""
    golden = (GOLDEN_DIR / f"example{example_id}.txt").read_text(encoding="utf-8")
    assert out == golden


# parse (empty, a unit at level 0, a chain of depth 300), roundtrip and
# verify-theorem, each passing and failing, in text and --json: the
# stdout and exit status every one of them must keep
_PINS = json.loads((GOLDEN_DIR / "cli_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "pin", _PINS, ids=[f"{i}-{p['argv'][0]}" for i, p in enumerate(_PINS)]
)
def test_cli_output_matches_pins(pin, capsys):
    code, out, err = run(capsys, *pin["argv"])
    assert (out, code, err) == (pin["stdout"], pin["exit"], "")


def test_example_2_reports_pass(capsys):
    _, out, _ = run(capsys, "examples", "2")
    assert "PASS (tol 1e-12)" in out


def test_example_2_enumerates_once(capsys, monkeypatch):
    calls = _count_listings(monkeypatch)
    code, out, _ = run(capsys, "examples", "2")
    assert code == 0 and len(calls) == 1
    assert out == (GOLDEN_DIR / "example2.txt").read_text(encoding="utf-8")
