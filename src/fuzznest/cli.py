"""Command-line frontend.

Exit status: 0 when every check a command performs passes, 1 when a
verification fails, 2 on usage or input errors. Results go to stdout,
diagnostics to stderr. Text output prints floats at --precision decimal
places (default 6); --json switches to machine-readable output with
full-precision numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from .errors import FuzznestError, ParseError
from .fuzzy_core import (
    FuzzySet,
    VerificationReport,
    _power_report,
    construct_fuzzy_set,
    fuzzy_power_set,
    fuzzyset_from_json,
    scalar_cardinality,
    verify_power_cardinality,
)
from .seq_codec import (
    DEFAULT_CONFIG,
    BinarySequence,
    SolverConfig,
    decode,
    encode,
    expand_to_fuzzy,
    iterate_level,
    parse_sequence,
    print_sequence,
    sequence_from_json,
    series_cardinality,
)
from .set_expr import _parse, parse_expr

# ------------------------------------------------------------ formatting


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _table(rows: list[tuple[str, str]]) -> str:
    return _column_table(*zip(*rows))


def _column_table(labels: Sequence[str], values: Sequence[str]) -> str:
    width = max(map(len, labels)) + 2
    return "\n".join(
        [label.ljust(width) + value for label, value in zip(labels, values)]
    )


def _emit_json(obj) -> int:
    print(json.dumps(obj))
    return 0


def _report_rows(report: VerificationReport, precision: int) -> list[tuple[str, str]]:
    return [
        ("computed", _fmt(report.computed, precision)),
        ("expected", _fmt(report.expected, precision)),
        ("abs diff", f"{report.abs_diff:.3e}"),
    ]


def _report_json(report: VerificationReport) -> dict:
    return {
        "label": report.label,
        "computed": report.computed,
        "expected": report.expected,
        "abs_diff": report.abs_diff,
        "tolerance": report.tolerance,
        "pass": report.passed,
    }


def _verdict(passed: bool, tolerance: float) -> str:
    return f"{'PASS' if passed else 'FAIL'} (tol {tolerance:g})"


def _emit_check(
    args, fields: dict, rows: list[tuple[str, str]], report: VerificationReport
) -> int:
    """Print a randomized check's result, as the JSON object of fields plus
    tolerance and pass or as the rows and the verdict; return its exit status."""
    if args.json:
        _emit_json({**fields, "tolerance": report.tolerance, "pass": report.passed})
    else:
        print(_table(rows))
        print(_verdict(report.passed, report.tolerance))
    return 0 if report.passed else 1


def _read_fuzzyset(path: str) -> FuzzySet:
    try:
        text = str(Path(path).read_bytes(), "utf-8")
    except UnicodeDecodeError as ex:
        raise ParseError(f"invalid UTF-8: {ex.reason}", ex.start) from None
    return fuzzyset_from_json(text)


def _read_sequence(text: str) -> BinarySequence:
    if text.lstrip().startswith("{"):
        return sequence_from_json(text)
    return parse_sequence(text)


def _element_rows(fs: FuzzySet, precision: int) -> list[tuple[str, str]]:
    return [(t, _fmt(mu, precision)) for t, mu in zip(fs.texts, fs.memberships)]


def _element_json(fs: FuzzySet) -> list[dict]:
    return [{"expr": t, "mu": mu} for t, mu in zip(fs.texts, fs.memberships)]


def _base_row(base: FuzzySet, precision: int) -> tuple[str, str]:
    rows = _element_rows(base, precision)
    return ("base", " ".join([f"{t}={value}" for t, value in rows]))


def _decode_rows(
    value: float, expansion: FuzzySet, precision: int
) -> list[tuple[str, str]]:
    rows = [("value", _fmt(value, precision))] + _element_rows(expansion, precision)
    return rows + [("cardinality", _fmt(scalar_cardinality(expansion), precision))]


def _encode_fields(seq: BinarySequence, w: float) -> tuple[list[int], float]:
    indices = list(seq.nonzero_indices)
    residual = series_cardinality(seq, w) - 1.0
    return indices, residual


def _encode_rows(seq: BinarySequence, w: float) -> list[tuple[str, str]]:
    indices, residual = _encode_fields(seq, w)
    return [
        ("sequence", print_sequence(seq)),
        ("m_star", str(seq.m_star)),
        ("indices", " ".join(str(k) for k in indices)),
        ("truncated", "yes" if seq.truncated else "no"),
        ("residual", f"{residual:.3e}"),
    ]


# -------------------------------------------------------------- commands


def cmd_parse(args) -> int:
    _, depth, text = _parse(args.expr, {})
    if args.json:
        return _emit_json({"input": args.expr, "canonical": text, "depth": depth})
    print(text)
    return 0


def cmd_propagate(args) -> int:
    base = _read_fuzzyset(args.fuzzyset)
    exprs = [parse_expr(text) for text in args.expr]
    result = construct_fuzzy_set(base, exprs)
    if args.json:
        return _emit_json({"elements": _element_json(result)})
    print(_table(_element_rows(result, args.precision)))
    return 0


def cmd_card(args) -> int:
    base = _read_fuzzyset(args.fuzzyset)
    value = scalar_cardinality(base)
    if args.json:
        return _emit_json({"cardinality": value})
    print(_fmt(value, args.precision))
    return 0


def cmd_powerset(args) -> int:
    """Lists the power set from fuzzy_power_set's texts and products,
    building no node and no per-row dict, and checks the law on those
    products. The JSON is what json.dumps writes for
    {"elements": [{"expr": ..., "mu": ...}, ...]}: the products are
    finite floats, which json prints with float.__repr__, and one %
    formats every row from the flat list text, product, text, ..."""
    base = _read_fuzzyset(args.fuzzyset)
    listing = fuzzy_power_set(base)
    texts, products = listing.texts, listing.memberships
    report = None
    if args.verify:
        report = _power_report(base, products, args.tol)
    if args.json:
        flat = [None] * (2 * len(texts))
        flat[::2] = map(encode_basestring_ascii, texts)
        flat[1::2] = products
        template = ", ".join(['{"expr": %s, "mu": %r}'] * len(texts))
        out = '{"elements": [' + template % tuple(flat) + "]"
        if report is not None:
            out += ', "report": ' + json.dumps(_report_json(report))
        print(out + "}")
    else:
        spec = f".{args.precision}f"
        print(_column_table(texts, [format(mu, spec) for mu in products]))
        if report is not None:
            print(_table(_report_rows(report, args.precision)))
            print(_verdict(report.passed, report.tolerance))
    return 0 if report is None or report.passed else 1


def cmd_encode(args) -> int:
    cfg = SolverConfig(
        tol_residual=args.tol, max_terms=args.max_terms, max_index=args.max_index
    )
    seq = encode(args.value, cfg)
    if args.json:
        indices, residual = _encode_fields(seq, args.value)
        return _emit_json(
            {
                "m_star": seq.m_star,
                "bits": list(seq.bits),
                "truncated": seq.truncated,
                "value": args.value,
                "nonzero_indices": indices,
                "residual": residual,
            }
        )
    print(_table(_encode_rows(seq, args.value)))
    return 0


def cmd_decode(args) -> int:
    seq = _read_sequence(args.sequence)
    cfg = SolverConfig(tol_root=args.tol)
    value = decode(seq, cfg)
    expansion = expand_to_fuzzy(seq, cfg)
    if args.json:
        return _emit_json(
            {
                "value": value,
                "m_star": seq.m_star,
                "truncated": seq.truncated,
                "expansion": _element_json(expansion),
                "cardinality": scalar_cardinality(expansion),
            }
        )
    print(_table(_decode_rows(value, expansion, args.precision)))
    return 0


def cmd_roundtrip(args) -> int:
    cfg = SolverConfig(max_terms=args.max_terms)
    if args.value is not None:
        values = [args.value]
    else:
        rng = random.Random(args.seed)
        values = [0.01 + 0.98 * rng.random() for _ in range(args.count)]
    worst = 0.0
    for w in values:
        worst = max(worst, abs(decode(encode(w, cfg), cfg) - w))
    fields = {"trials": len(values), "max_abs_error": worst}
    rows = [
        ("trials", str(len(values))),
        ("max abs error", f"{worst:.3e}"),
    ]
    report = VerificationReport("decode(encode(w)) = w", worst, 0.0, args.tol)
    return _emit_check(args, fields, rows, report)


def _theorem_one_diff(rng: random.Random, tol: float) -> float:
    n = rng.randint(1, 12)
    base = FuzzySet.flat([(f"x{i + 1}", rng.random()) for i in range(n)])
    return verify_power_cardinality(base, tol).abs_diff


def _theorem_two_diff(rng: random.Random) -> float:
    u = rng.random()
    m = rng.randint(-6, 6)
    n = rng.randint(-6, 6)
    a = iterate_level(iterate_level(u, m), n)
    b = iterate_level(iterate_level(u, n), m)
    c = iterate_level(u, m + n)
    return max(abs(a - b), abs(a - c), abs(b - c))


def cmd_verify_theorem(args) -> int:
    rng = random.Random(args.seed)
    if args.id == 1:
        label = "power-set cardinality law: card(P(A)) = 2^card(A)"
        tol = args.tol if args.tol is not None else 1e-9
        worst = max(_theorem_one_diff(rng, tol) for _ in range(args.trials))
    else:
        label = "level composition law: u_m after u_n = u_(m+n)"
        tol = args.tol if args.tol is not None else 1e-12
        worst = max(_theorem_two_diff(rng) for _ in range(args.trials))
    fields = {
        "id": args.id,
        "label": label,
        "trials": args.trials,
        "max_abs_diff": worst,
    }
    rows = [
        ("check", label),
        ("trials", str(args.trials)),
        ("max abs diff", f"{worst:.3e}"),
    ]
    return _emit_check(args, fields, rows, VerificationReport(label, worst, 0.0, tol))


# ----------------------------------------------------- worked examples


def _example_membership_construction(precision: int) -> tuple[str, bool]:
    base = FuzzySet.flat([("x1", 0.2), ("x2", 0.3), ("x3", 0.5), ("x4", 1.0)])
    texts = ["{∅,x1}", "{{x2},{x3}}", "{x1,{x2,{x3,{x4}}}}"]
    result = construct_fuzzy_set(base, [parse_expr(t) for t in texts])
    rows = [_base_row(base, precision)] + _element_rows(result, precision)
    return _table(rows), True


def _example_power_cardinality(precision: int) -> tuple[str, bool]:
    base = FuzzySet.flat([("x1", 0.2), ("x2", 0.3), ("x3", 0.5)])
    power = fuzzy_power_set(base)
    report = _power_report(base, power.memberships, tol=1e-12)
    rows = [_base_row(base, precision)] + _element_rows(power, precision)
    rows += _report_rows(report, precision)
    text = _table(rows) + "\n" + _verdict(report.passed, report.tolerance)
    return text, report.passed


def _example_decoding(precision: int) -> tuple[str, bool]:
    blocks = []
    for text in ("10|01", "|01001"):
        seq = parse_sequence(text)
        value = decode(seq)
        expansion = expand_to_fuzzy(seq)
        rows = [("sequence", print_sequence(seq))]
        rows += _decode_rows(value, expansion, precision)
        blocks.append(_table(rows))
    return "\n\n".join(blocks), True


def _example_encoding(precision: int) -> tuple[str, bool]:
    blocks = []
    for w in (0.3, 0.8):
        rows = [("value", _fmt(w, precision))] + _encode_rows(encode(w), w)
        blocks.append(_table(rows))
    return "\n\n".join(blocks), True


_EXAMPLES = {
    1: _example_membership_construction,
    2: _example_power_cardinality,
    3: _example_decoding,
    4: _example_encoding,
}


def cmd_examples(args) -> int:
    text, passed = _EXAMPLES[args.id](args.precision)
    print(text)
    return 0 if passed else 1


# ---------------------------------------------------------------- parser


def _int_between(text: str, least: int, most: float = math.inf) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    if value > most:
        raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_between(text, 1)


def _precision(text: str) -> int:
    # every binary64 value prints exactly within 1074 decimal places
    return _int_between(text, 0, 1074)


def _tolerance(text: str) -> float:
    """A verification tolerance: a finite number, at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and at least 0, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    json_option = argparse.ArgumentParser(add_help=False)
    json_option.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision",
        type=_precision,
        default=6,
        metavar="N",
        help="decimal places in text output (default 6)",
    )
    common = [json_option, precision]

    parser = argparse.ArgumentParser(
        prog="fuzznest",
        description=(
            "Fuzzy sets over nested-set universes: membership propagation, "
            "power-set cardinality checks, and binary-sequence encoding of "
            "membership values."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser(
        "parse", parents=common, help="canonicalize a set expression"
    )
    p.add_argument("expr", help="expression text, e.g. '{x1,{x2}}'")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser(
        "propagate",
        parents=common,
        help="derive memberships for expressions from a base fuzzy set",
    )
    p.add_argument("fuzzyset", help="path to a fuzzy set JSON file")
    p.add_argument("expr", nargs="+", help="expression text(s)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser(
        "card", parents=common, help="scalar cardinality of a fuzzy set"
    )
    p.add_argument("fuzzyset", help="path to a fuzzy set JSON file")
    p.set_defaults(func=cmd_card)

    p = sub.add_parser(
        "powerset",
        parents=common,
        help="fuzzy power set of a flat fuzzy set",
    )
    p.add_argument("fuzzyset", help="path to a fuzzy set JSON file")
    p.add_argument(
        "--verify",
        action="store_true",
        help="check card(P(A)) = 2^card(A); exit 1 on failure",
    )
    p.add_argument(
        "--tol", type=_tolerance, default=1e-9, help="tolerance (default 1e-9)"
    )
    p.set_defaults(func=cmd_powerset)

    p = sub.add_parser(
        "encode",
        parents=common,
        help="greedy binary-sequence expansion of a membership value",
    )
    p.add_argument("value", type=float, help="membership value in (0,1]")
    p.add_argument(
        "--max-terms", type=int, default=DEFAULT_CONFIG.max_terms,
        help="bit budget (default %(default)s)",
    )
    p.add_argument(
        "--tol", type=float, default=DEFAULT_CONFIG.tol_residual,
        help="residual tolerance (default %(default)s)",
    )
    p.add_argument(
        "--max-index", type=int, default=DEFAULT_CONFIG.max_index,
        help="level cap (default %(default)s)",
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser(
        "decode",
        parents=common,
        help="membership value of a binary sequence, with its expansion",
    )
    p.add_argument(
        "sequence",
        help="sequence text like '10|01', or its JSON form",
    )
    p.add_argument(
        "--tol", type=float, default=DEFAULT_CONFIG.tol_root,
        help="root tolerance (default %(default)s)",
    )
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser(
        "roundtrip",
        parents=common,
        help="check decode(encode(w)) = w for one or many values",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--value", type=float, help="single value to roundtrip")
    group.add_argument(
        "--count", type=_positive_int, help="number of random trials"
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--tol", type=_tolerance, default=1e-10, help="error tolerance (default 1e-10)"
    )
    p.add_argument(
        "--max-terms", type=int, default=DEFAULT_CONFIG.max_terms,
        help="encoder bit budget (default %(default)s)",
    )
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser(
        "verify-theorem",
        parents=common,
        help="randomized check: 1 = power-set cardinality law, "
        "2 = level composition law",
    )
    p.add_argument("id", type=int, choices=(1, 2))
    p.add_argument(
        "--trials", type=_positive_int, default=100, help="default 100"
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        help="tolerance (default 1e-9 for 1, 1e-12 for 2)",
    )
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser(
        "examples",
        parents=[precision],
        help="reproduce a worked example (1 construction, 2 power set, "
        "3 decoding, 4 encoding)",
    )
    p.add_argument("id", type=int, choices=(1, 2, 3, 4))
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FuzznestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
