"""The three seeded workloads, their defect probes and the shared examples op.

Inputs are built from the seed before timing. Sizes sit on fixed grids
or in fixed strata and the seed draws everything else (values, atoms,
levels, shapes, and the order of the many small codec operations), so
two seeds give different inputs with the same cost profile. The few large
superstructure and powerset inputs run in a fixed order of size, so that
what one operation leaves behind for the next (garbage to collect, cold
caches) does not change with the seed. Only the public API is used: names in fuzznest.__all__ and
fuzznest.cli.main.

Workloads and why:

* codec: encode/print/parse/decode/expand chains over w in (0,1], a quarter
  of them below 0.05 (long sequences, very negative m_star), plus short
  decodes, level maps with |k| up to 256 and a CLI share. The kernels and
  seq_codec do the work; set_expr and fuzzy_core sit idle.
* superstructure: expressions of width 1..2000 and depth 1..300 against a
  base read once from JSON, through parse, normalize, construct,
  print/parse and JSON round trips, plus a CLI share. set_expr
  canonicalization dominates; the kernels only see short level maps.
* powerset: flat bases of 4..16 atoms through the power-set check, the
  listing and its JSON, read-back of listings up to 12 atoms (thousands
  of tiny parses) and a CLI share. fuzzy_core enumeration dominates.

Every cycle of every workload also reproduces the paper's four worked
examples once, so each traced layer metric is a measured, non-zero time
on every workload.

Inputs that hit known defects (a 3,000,000-bit decode, {x1}^(100000000),
nesting past the recursion limit, boolean memberships, CLI counts below
1) run as probes, in their own process, on every run.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import fuzznest
from fuzznest.cli import main as cli_main

import checks as C
from checks import require
from harness import Op

API = SimpleNamespace(**{name: getattr(fuzznest, name) for name in fuzznest.__all__})

CODEC_BUDGET_S = 1.0
SET_BUDGET_S = 5.0


def _fuzznest_error(err: BaseException) -> bool:
    return isinstance(err, API.FuzznestError)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with stdout captured; argparse exits become codes."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue()


def cli_json(result: tuple[int, str]) -> dict:
    code, out = result
    require(code == 0, "cli", f"exit status {code}")
    return json.loads(out)


def strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one uniform draw in each of n equal strata, shuffled."""
    points = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


def log_grid(top: int, n: int) -> list[int]:
    """n sizes spread evenly in log scale over [1, top]."""
    return [round(top ** (i / (n - 1))) for i in range(n)]


def fuzzyset_json(mu: dict[str, float]) -> str:
    """A flat fuzzy set in the program's JSON form, written by the benchmark."""
    rows = ",".join('{"expr":"%s","mu":%r}' % (a, m) for a, m in mu.items())
    return '{"atoms":[%s],"elements":[%s]}' % (",".join(f'"{a}"' for a in mu), rows)


# ---------------------------------------------------------------- examples


EX_BASE = {"x1": 0.2, "x2": 0.3, "x3": 0.5, "x4": 1.0}
EX_EXPRS = ["{∅,x1}", "{{x2},{x3}}", "{x1,{x2,{x3,{x4}}}}"]
EX_CANONICAL = ["{x1,∅}", "{{x2},{x3}}", "{x1,{x2,{x3,{x4}}}}"]  # as the README prints them
EX_POWER = {"x1": 0.2, "x2": 0.3, "x3": 0.5}


def examples_op() -> Op:
    """The paper's four worked examples through the public API."""
    base_json = fuzzyset_json(EX_BASE)
    power_base = API.fuzzyset_from_json(fuzzyset_json(EX_POWER))
    seq_json = '{"m_star":0,"bits":[1,0,1,0,0,1]}'

    def run(tr):
        base = tr.call("fuzzy_core.fuzzyset_from_json", API.fuzzyset_from_json, base_json)
        exprs = [tr.call("set_expr.parse_expr", API.parse_expr, t) for t in EX_EXPRS]
        again = tr.call("set_expr.normalize", API.normalize, exprs[2])
        built = tr.call("fuzzy_core.construct_fuzzy_set", API.construct_fuzzy_set, base, exprs)
        deep = tr.call("fuzzy_core.propagate_membership", API.propagate_membership, base, exprs[2])
        printed = [tr.call("set_expr.print_expr", API.print_expr, e) for e in exprs]
        power = tr.call("fuzzy_core.fuzzy_power_set", API.fuzzy_power_set, power_base)
        report = tr.call(
            "fuzzy_core.verify_power_cardinality", API.verify_power_cardinality, power_base
        )
        listing = tr.call("fuzzy_core.fuzzyset_to_json", API.fuzzyset_to_json, power)
        seqs = [
            tr.call("seq_codec.parse_sequence", API.parse_sequence, "10|01"),
            tr.call("seq_codec.sequence_from_json", API.sequence_from_json, seq_json),
        ]
        decoded = [
            (s, tr.call("seq_codec.decode", API.decode, s),
             tr.call("seq_codec.expand_to_fuzzy", API.expand_to_fuzzy, s))
            for s in seqs
        ]
        encoded = []
        for w in (0.3, 0.8):
            s = tr.call("seq_codec.encode", API.encode, w)
            g = tr.call("kernels.series_cardinality", API.series_cardinality, s, w)
            encoded.append((w, s, g))
        composed = (
            tr.call("kernels.iterate_level", API.iterate_level,
                    tr.call("kernels.iterate_level", API.iterate_level, 0.37, 5), -3),
            tr.call("kernels.iterate_level", API.iterate_level, 0.37, 2),
        )
        return (exprs, again, built, deep, printed, power, report, listing,
                decoded, encoded, composed)

    def check(out):
        (exprs, again, built, deep, printed, power, report, listing,
         decoded, encoded, composed) = out
        require(C.same_tree(again, exprs[2]), "set_expr", "normalize is not idempotent")
        require(printed == EX_CANONICAL, "set_expr", f"printed {printed!r}")
        C.check_memberships(built.elements, EX_BASE, "fuzzy_core")
        require(C.close(deep, C.membership(exprs[2], EX_BASE)), "fuzzy_core", "propagate")
        C.check_power_listing(
            [(C.subset_atoms(e), m) for e, m in power.elements], EX_POWER, "fuzzy_core"
        )
        require(
            report.passed
            and abs(report.computed - C.power_expected(EX_POWER)) <= C.POWER_TOL,
            "fuzzy_core", "power-set report",
        )
        require(
            dict(C.listing_from_json(listing, "fuzzy_core"))
            == {C.subset_atoms(e): m for e, m in power.elements},
            "fuzzy_core", "listing JSON differs from the listing",
        )
        for s, v, fs in decoded:
            C.check_decoded(v, s.m_star, s.bits, "seq_codec")
            C.check_expansion(fs.elements, v, s.m_star, s.bits, "x")
        for w, s, g in encoded:
            require(not s.truncated and abs(g - 1.0) <= 2e-12, "seq_codec", f"encode({w})")
            require(C.close(g, C.series(s.m_star, s.bits, w)), "kernels", "series")
        require(C.close(composed[1], C.level(0.37, 2)), "kernels", "u_2")
        require(C.close(composed[0], composed[1], 1e-10), "kernels", "u_-3 after u_5")
        return {"kernels.level_steps": 5 + 3 + 2, "seq_codec.encodes": 2,
                "seq_codec.bits": sum(len(s.bits) for _, s, _ in encoded),
                "set_expr.nodes": sum(C.node_count(e) for e in exprs),
                "fuzzy_core.subsets": 2 * 2 ** len(EX_POWER)}

    return Op("examples", "the paper's worked examples", run, check)


# ------------------------------------------------------------------ codec


def _short_sequence(rng: random.Random) -> tuple[int, tuple[int, ...]]:
    m_star = -rng.randint(0, 4)
    left = [1] + [rng.randint(0, 1) for _ in range(-m_star - 1)] if m_star else []
    right = [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
    if right:
        right[-1] = 1
    return m_star, tuple(left + [1] + right)


def _sequence_text(rng: random.Random, m_star: int, bits) -> str:
    left, right = bits[:-m_star], bits[-m_star + 1:]
    if rng.random() < 0.5:
        return "".join(map(str, left)) + "|" + "".join(map(str, right))
    inner = ",".join(map(str, left)) + "|" + ",".join(map(str, right))
    return "(" + inner + ")"


def _sequence_json(m_star: int, bits) -> str:
    return json.dumps({"m_star": m_star, "bits": list(bits)})


def _codec_main(w: float, max_index: int, bits_seen: dict) -> Op:
    def run(tr):
        seq = tr.call("seq_codec.encode", API.encode, w)
        g = tr.call("kernels.series_cardinality", API.series_cardinality, seq, w)
        text = tr.call("seq_codec.print_sequence", API.print_sequence, seq)
        back = tr.call("seq_codec.parse_sequence", API.parse_sequence, text)
        value = tr.call("seq_codec.decode", API.decode, back)
        fs = tr.call("seq_codec.expand_to_fuzzy", API.expand_to_fuzzy, back)
        return seq, g, back, value, fs

    def check(out):
        seq, g, back, value, fs = out
        bits = seq.bits
        bits_seen[w] = len(bits)
        require(
            (back.m_star, back.bits, back.truncated) == (seq.m_star, bits, seq.truncated),
            "seq_codec", "print/parse changed the sequence",
        )
        own = C.series(seq.m_star, bits, w)
        require(C.close(g, own), "kernels", f"series_cardinality {g!r}, own {own!r}")
        if not seq.truncated:
            require(abs(own - 1.0) <= 2e-12, "seq_codec", f"encode residual {own - 1.0!r}")
        C.check_decoded(value, seq.m_star, bits, "seq_codec")
        if seq.truncated:
            require(value >= w - C.ROUNDTRIP_TOL, "seq_codec", "prefix root below w")
        else:
            require(abs(value - w) <= C.ROUNDTRIP_TOL, "seq_codec", f"round trip {value!r} != {w!r}")
        C.check_expansion(fs.elements, value, seq.m_star, bits, "x")
        return {"seq_codec.bits": 2 * len(bits), "seq_codec.encodes": 1,
                "seq_codec.truncated": int(seq.truncated)}

    def allow(err):
        return _fuzznest_error(err) and C.initial_index_exceeds(w, max_index)

    return Op("roundtrip", f"w={w!r}", run, check, allow)


def _codec_decode(m_star: int, bits, text: str, as_json: bool) -> Op:
    name, fn = (
        ("seq_codec.sequence_from_json", API.sequence_from_json)
        if as_json else ("seq_codec.parse_sequence", API.parse_sequence)
    )

    def run(tr):
        seq = tr.call(name, fn, text)
        return seq, tr.call("seq_codec.decode", API.decode, seq)

    def check(out):
        seq, value = out
        require((seq.m_star, seq.bits) == (m_star, bits), "seq_codec", "sequence misread")
        C.check_decoded(value, m_star, bits, "seq_codec")
        return {"seq_codec.bits": len(bits)}

    return Op("decode", text, run, check)


def _codec_level(t: float, k: int) -> Op:
    def run(tr):
        return tr.call("kernels.iterate_level", API.iterate_level, t, k)

    def check(v):
        require(C.close(v, C.level(t, k)), "kernels", f"u_{k}({t!r}) = {v!r}")
        return {"kernels.level_steps": abs(k)}

    return Op("level", f"t={t!r} k={k}", run, check)


def _cli_decode(m_star: int, bits, text: str) -> Op:
    argv = ["decode", text, "--json"]

    def run(tr):
        return tr.call("cli.main", run_cli, argv)

    def check(out):
        doc = cli_json(out)
        value = doc["value"]
        C.check_decoded(value, m_star, bits, "cli")
        ks = C.one_indices(m_star, bits)
        require(len(doc["expansion"]) == len(ks), "cli", "expansion size")
        pairs = [(SimpleNamespace(atom="x", level=k), e["mu"])
                 for k, e in zip(ks, doc["expansion"])]
        C.check_expansion(pairs, value, m_star, bits, "x")
        require(abs(doc["cardinality"] - 1.0) <= C.SERIES_TOL, "cli", "cardinality")
        return None

    return Op("cli", " ".join(argv), run, check)


def _cli_encode(w: float, max_index: int) -> Op:
    argv = ["encode", repr(w), "--json"]

    def run(tr):
        return tr.call("cli.main", run_cli, argv)

    def check(out):
        if out[0] == 2 and C.initial_index_exceeds(w, max_index):
            return None  # the documented error exit
        doc = cli_json(out)
        own = C.series(doc["m_star"], doc["bits"], w)
        require(C.close(doc["residual"], own - 1.0), "cli", "residual")
        if not doc["truncated"]:
            require(abs(own - 1.0) <= 2e-12, "cli", f"residual {own - 1.0!r}")
        return None

    return Op("cli", " ".join(argv), run, check)


def build_codec(seed: int, workdir: Path) -> SimpleNamespace:
    rng = random.Random(seed)
    max_index = API.DEFAULT_CONFIG.max_index
    # three quarters uniform over (0.05, 1], a quarter log-spread over [1e-19, 0.05).
    # These chains are 60% of the mix, so the median latency falls inside
    # their smooth spread rather than on the step to the cheaper kinds.
    values = [1.0 - 0.95 * u for u in strata(rng, 150)]
    lo, hi = math.log10(1e-19), math.log10(0.05)
    values += [10 ** (lo + u * (hi - lo)) for u in strata(rng, 50)]
    rng.shuffle(values)
    shorts = [_short_sequence(rng) for _ in range(68)]
    texts = [
        (m, b, _sequence_json(m, b), True) if i % 2 else (m, b, _sequence_text(rng, m, b), False)
        for i, (m, b) in enumerate(shorts)
    ]
    levels = [
        (rng.random(), round(256 ** u) * rng.choice((-1, 1))) for u in strata(rng, 60)
    ]
    bits_seen: dict[float, int] = {}
    ops = [_codec_main(w, max_index, bits_seen) for w in values]
    ops += [_codec_decode(*t) for t in texts[:60]]
    ops += [_codec_level(t, k) for t, k in levels]
    ops += [_cli_decode(m, b, text) for m, b, text, _ in texts[60:]]
    ops += [_cli_encode(w, max_index) for w in values[:8]]
    rng.shuffle(ops)
    ex = examples_op()

    def stats():
        seen = sorted(bits_seen.values())
        return {
            "values": len(values),
            "share_w_below_0.05": sum(w < 0.05 for w in values) / len(values),
            "bits_per_sequence": _summary(seen),
            "short_sequence_bits": _summary(sorted(len(b) for _, b in shorts)),
            "share_abs_k_above_64": sum(abs(k) > 64 for _, k in levels) / len(levels),
        }

    warm = [ex, ops[0], _codec_decode(*texts[0]), _codec_level(*levels[0])]
    return SimpleNamespace(
        budget_s=CODEC_BUDGET_S, ops=[ex] + ops, warm=warm, stats=stats,
        probes=lambda: codec_probes(max_index), setup_files=[],
    )


def codec_probes(max_index: int) -> list[Op]:
    """Known defects: a decode that bisects over 3,000,000 levels, and a
    negative roundtrip count that reports PASS instead of a usage error."""
    m_star = -3_000_000
    bits = (1,) + (0,) * (-m_star - 1) + (1,)
    text = _sequence_json(m_star, bits)

    def run(tr):
        seq = tr.call("seq_codec.sequence_from_json", API.sequence_from_json, text)
        return tr.call("seq_codec.decode", API.decode, seq)

    def check(value):
        C.check_decoded(value, m_star, bits, "seq_codec")

    def run_cli_count(tr):
        return tr.call("cli.main", run_cli, ["roundtrip", "--count", "-5"])

    def check_cli_count(out):
        require(out[0] == 2, "cli", f"roundtrip --count -5 exited {out[0]}, not 2")

    return [
        Op("decode", "m_star=-3000000", run, check),
        Op("cli", "roundtrip --count -5", run_cli_count, check_cli_count),
    ]


# --------------------------------------------------------- superstructure

# A generated expression is a small tree of tuples: ("e",) for the empty
# set, ("a", name, level) for {name}^(level), ("s", [children]) for a set.
# Sets never hold two elements with the same canonical form, so the product
# rule gives the same membership on this tree as on the canonical one.

ATOMS = [f"x{i}" for i in range(1, 9)]


def _atom_text(name: str, k: int) -> str:
    if k == 0:
        return name
    return "{%s}" % name if k == 1 else "{%s}^(%d)" % (name, k)


def _render(tree) -> tuple[str, object, list[int]]:
    """(text, tree of fuzznest nodes as the parser reads it before
    canonicalizing, atom levels). Iterative: trees run 400 levels deep."""
    out: dict[int, tuple[str, object]] = {}
    stack = [(tree, False)]
    levels = []
    while stack:
        node, done = stack.pop()
        if node[0] == "e":
            out[id(node)] = ("∅", API.EMPTY)
        elif node[0] == "a":
            _, name, k = node
            levels.append(k)
            raw = API.SetOf((API.Braced(name, 0),)) if k == 1 else API.Braced(name, k)
            out[id(node)] = (_atom_text(name, k), raw)
        elif done:
            parts = [out[id(c)] for c in node[1]]
            text = "{" + ",".join(p[0] for p in parts) + "}"
            out[id(node)] = (text, API.SetOf(tuple(p[1] for p in parts)))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node[1])
    text, raw = out[id(tree)]
    return text, raw, levels


def _tree_membership(tree, mu) -> float:
    """Product rule on a generated tree (no duplicates, so no canonicalizing)."""
    val: dict[int, float] = {}
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if node[0] == "e":
            val[id(node)] = 1.0
        elif node[0] == "a":
            val[id(node)] = C.level(mu[node[1]], node[2])
        elif done:
            val[id(node)] = math.prod(2.0 ** val[id(c)] - 1.0 for c in node[1])
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node[1])
    return val[id(tree)]


# Every (atom, level) pair, in order of |level|.
PAIRS = sorted(((a, k) for a in ATOMS for k in range(-256, 257)), key=lambda p: abs(p[1]))


def _wide(rng: random.Random, width: int):
    """A set of `width` distinct shallow elements with levels in [-256, 256].

    One (atom, level) pair from each of `width` equal strata of PAIRS:
    uniform over the pairs, but with about the same total |level|, and so
    the same level-map work, for every seed.
    """
    pairs = [PAIRS[int((i + rng.random()) * len(PAIRS) / width)] for i in range(width)]
    rng.shuffle(pairs)
    elements = []
    for i, (a, k) in enumerate(pairs):
        if i % 5 == 4 and k != 0:
            # {a, {b}^(k)}: its (a, k) pair is unique, so the set is too
            b = rng.choice([x for x in ATOMS if x != a])
            elements.append(("s", [("a", a, 0), ("a", b, k)]))
        else:
            elements.append(("a", a, k))
    if width > 1 and rng.random() < 0.5:
        elements[rng.randrange(width)] = ("e",)
    return ("s", elements)


def _deep(rng: random.Random, depth: int):
    """`depth` nested sets, each holding an atom and the next set down."""
    node = ("a", rng.choice(ATOMS), rng.randint(-256, 256))
    for _ in range(depth):
        node = ("s", [("a", rng.choice(ATOMS), rng.randint(-3, 3)), node])
    return node


def _expression_ops(text, raw, tree, base, mu, base_path, cli: str | None) -> list[Op]:
    st: dict = {}
    want = _tree_membership(tree, mu)

    def run_parse(tr):
        st["e"] = tr.call("set_expr.parse_expr", API.parse_expr, text)
        return st["e"]

    def check_parse(e):
        require(C.close(C.membership(e, mu), want), "set_expr", "parse changed the meaning")
        return {"set_expr.nodes": C.node_count(e)}

    def run_normalize(tr):
        return tr.call("set_expr.normalize", API.normalize, raw)

    def check_normalize(e):
        require(C.same_tree(e, st["e"]), "set_expr", "normalize and parse disagree")
        require(C.close(C.membership(e, mu), want), "set_expr", "normalize changed the meaning")

    def run_construct(tr):
        e = st["e"]
        universe = list(C.children(e)) or [e]
        st["fs"] = tr.call(
            "fuzzy_core.construct_fuzzy_set", API.construct_fuzzy_set, base, universe
        )
        return universe, st["fs"]

    def check_construct(out):
        universe, fs = out
        require(len(fs.elements) == len(universe), "fuzzy_core", "element count")
        require(
            all(C.same_tree(e, u) for (e, _), u in zip(fs.elements, universe)),
            "fuzzy_core", "elements reordered or changed",
        )
        C.check_memberships(fs.elements, mu, "fuzzy_core")

    def run_print_parse(tr):
        st["printed"] = tr.call("set_expr.print_expr", API.print_expr, st["e"])
        return tr.call("set_expr.parse_expr", API.parse_expr, st["printed"])

    def check_print_parse(e):
        require(C.same_tree(e, st["e"]), "set_expr", "print/parse round trip changed the tree")
        return {"set_expr.nodes": C.node_count(e)}

    def run_json(tr):
        text_json = tr.call("fuzzy_core.fuzzyset_to_json", API.fuzzyset_to_json, st["fs"])
        return tr.call("fuzzy_core.fuzzyset_from_json", API.fuzzyset_from_json, text_json)

    def check_json(fs):
        require(C.same_fuzzy_set(fs, st["fs"]), "fuzzy_core", "JSON round trip changed the set")

    if cli == "propagate":
        argv = ["propagate", str(base_path), text, "--json"]
    else:
        argv = ["parse", text, "--json"]

    def run_cli_op(tr):
        return tr.call("cli.main", run_cli, argv)

    def check_cli(out):
        doc = cli_json(out)
        if cli == "propagate":
            (row,) = doc["elements"]
            require(row["expr"] == st["printed"], "cli", "propagate printed another form")
            require(C.close(row["mu"], want), "cli", f"propagate gave {row['mu']!r}")
        else:
            require(doc["canonical"] == st["printed"], "cli", "parse printed another form")
            require(doc["depth"] == C.depth(st["e"]), "cli", "parse reported another depth")

    ops = [
        Op("parse", text, run_parse, check_parse),
        Op("normalize", text, run_normalize, check_normalize),
        Op("construct", text, run_construct, check_construct),
        Op("print_parse", text, run_print_parse, check_print_parse),
        Op("json", text, run_json, check_json),
    ]
    return ops + ([Op("cli", " ".join(argv), run_cli_op, check_cli)] if cli else [])


WIDTHS = log_grid(2000, 20)
DEPTHS = log_grid(300, 20)
PROBE_DEPTHS = (345, 370, 400)


def build_superstructure(seed: int, workdir: Path) -> SimpleNamespace:
    rng = random.Random(seed)
    mu = {a: 0.05 + 0.9 * rng.random() for a in ATOMS}
    base_path = workdir / "base.json"
    base_path.write_text(fuzzyset_json(mu), encoding="utf-8")
    base = API.fuzzyset_from_json(base_path.read_text(encoding="utf-8"))
    # (width, nesting depth, tree, grid position), wide and deep alternating;
    # the CLI share goes by grid position, so every seed sends the same
    # sizes through the CLI
    trees = []
    for i, (w, d) in enumerate(zip(WIDTHS, DEPTHS)):
        trees.append((w, 1 if w < 5 else 2, _wide(rng, w), i))
        trees.append((2, d, _deep(rng, d), i))
    groups, shapes = [], []
    for width, depth, tree, i in trees:
        text, raw, levels = _render(tree)
        cli = None if i % 2 else ("propagate" if i % 4 == 0 else "parse")
        groups.append(_expression_ops(text, raw, tree, base, mu, base_path, cli))
        shapes.append((width, depth, levels))
    ops = [op for group in groups for op in group]
    ex = examples_op()
    small = min(range(len(trees)), key=lambda i: shapes[i][0] * shapes[i][1])

    def stats():
        depths = [d for _, d, _ in shapes] + list(PROBE_DEPTHS)
        ks = [k for _, _, levels in shapes for k in levels]
        return {
            "expressions": len(trees),
            "width_histogram": _log2_histogram([w for w, _, _ in shapes]),
            "nesting_depth_histogram": _log2_histogram(depths),
            "share_depth_above_340": sum(d > 340 for d in depths) / len(depths),
            "share_abs_k_above_64": sum(abs(k) > 64 for k in ks) / max(1, len(ks)),
        }

    return SimpleNamespace(
        budget_s=SET_BUDGET_S, ops=[ex] + ops, warm=[ex] + groups[small], stats=stats,
        probes=lambda: superstructure_probes(rng, base, mu), setup_files=[base_path],
    )


def superstructure_probes(rng: random.Random, base, mu) -> list[Op]:
    """Known defects: a level of 100,000,000 and nesting past the recursion limit."""
    probes = []
    huge = ("a", "x1", 100_000_000)
    for name, tree in [("{x1}^(100000000)", huge)] + [
        (f"depth {d}", _deep(rng, d)) for d in PROBE_DEPTHS
    ]:
        text, _, _ = _render(tree)
        want = _tree_membership(tree, mu)

        def run(tr, text=text):
            e = tr.call("set_expr.parse_expr", API.parse_expr, text)
            return tr.call("fuzzy_core.propagate_membership", API.propagate_membership, base, e)

        def check(m, want=want):
            require(C.close(m, want), "fuzzy_core", f"membership {m!r}, want {want!r}")

        probes.append(Op("propagate", name, run, check))
    return probes


# ---------------------------------------------------------------- powerset

POWER_SIZES = list(range(4, 17))
READBACK_MAX = 12


def _listing_json(mu: dict[str, float]) -> str:
    """The power-set listing of a flat base, computed and written by the benchmark."""
    from itertools import combinations

    names = sorted(mu)
    rows = ['{"expr":"∅","mu":1.0}']
    for size in range(1, len(names) + 1):
        for combo in combinations(names, size):
            expr = "{%s}" % ",".join(combo)
            rows.append('{"expr":"%s","mu":%r}' % (expr, C.subset_product(combo, mu)))
    atoms = ",".join(f'"{a}"' for a in mu)
    return '{"atoms":[%s],"elements":[%s]}' % (atoms, ",".join(rows))


def _power_ops(base, mu, path: Path) -> list[Op]:
    n = len(mu)
    # The program is deterministic: once an output text passed the full
    # check, a later cycle's output passes by being the same text.
    verified: dict[str, object] = {}

    def run_verify(tr):
        return tr.call(
            "fuzzy_core.verify_power_cardinality", API.verify_power_cardinality, base
        )

    def check_verify(report):
        want = C.power_expected(mu)
        require(report.passed, "fuzzy_core", "the power-set law check failed")
        require(abs(report.computed - want) <= C.POWER_TOL, "fuzzy_core",
                f"sum {report.computed!r}, 2^card = {want!r}")
        return {"fuzzy_core.subsets": 2 ** n}

    def run_listing(tr):
        fs = tr.call("fuzzy_core.fuzzy_power_set", API.fuzzy_power_set, base)
        return fs, tr.call("fuzzy_core.fuzzyset_to_json", API.fuzzyset_to_json, fs)

    def check_listing(out):
        fs, text = out
        require(len(fs.elements) == 2 ** n, "fuzzy_core", "listing has the wrong size")
        if text != verified.get("listing"):
            C.check_power_listing(C.listing_from_json(text, "fuzzy_core"), mu, "fuzzy_core")
            verified["listing"] = text
        return {"fuzzy_core.subsets": 2 ** n}

    argv = ["powerset", str(path), "--verify", "--json"]

    def run_cli_op(tr):
        return tr.call("cli.main", run_cli, argv)

    def check_cli(out):
        # Element by element the listing op checks the same enumeration; here
        # the count, distinct subsets, the sum and the report.
        if out == verified.get("cli"):
            return
        doc = cli_json(out)
        report = doc["report"]
        want = C.power_expected(mu)
        require(report["pass"], "cli", "the power-set law check failed")
        require(abs(report["computed"] - want) <= C.POWER_TOL, "cli", "reported sum")
        rows = doc["elements"]
        require(len(rows) == 2 ** n == len({r["expr"] for r in rows}), "cli", "listing size")
        total = math.fsum(r["mu"] for r in rows)
        require(abs(total - want) <= C.POWER_TOL, "cli", f"listed sum {total!r} != {want!r}")
        verified["cli"] = out

    label = f"n={n} " + json.dumps(mu)
    ops = [
        Op("verify", label, run_verify, check_verify),
        Op("listing", label, run_listing, check_listing),
        Op("cli", label, run_cli_op, check_cli),
    ]
    if n <= READBACK_MAX:
        text = _listing_json(mu)
        rows = C.listing_from_json(text, "fuzzy_core")

        def run_readback(tr):
            return tr.call("fuzzy_core.fuzzyset_from_json", API.fuzzyset_from_json, text)

        def check_readback(fs):
            require(tuple(fs.universe.atoms) == tuple(mu), "fuzzy_core", "atoms changed")
            got = [(C.subset_atoms(e), m) for e, m in fs.elements]
            require(got == rows, "fuzzy_core", "read-back differs from the listing")
            return {"set_expr.nodes": sum(C.node_count(e) for e, _ in fs.elements)}

        ops.append(Op("readback", label, run_readback, check_readback))
    return ops


def build_powerset(seed: int, workdir: Path) -> SimpleNamespace:
    rng = random.Random(seed)
    groups, paths = [], []
    for n in POWER_SIZES:
        mu = {f"x{i}": rng.random() for i in range(1, n + 1)}
        path = workdir / f"base_{n}.json"
        path.write_text(fuzzyset_json(mu), encoding="utf-8")
        base = API.fuzzyset_from_json(path.read_text(encoding="utf-8"))
        groups.append(_power_ops(base, mu, path))
        paths.append(path)
    warm = [examples_op()] + groups[0]
    ops = [op for group in groups for op in group]

    def stats():
        return {
            "bases": len(POWER_SIZES),
            "n_distribution": {str(n): 1 for n in POWER_SIZES},
            "readback_n_max": READBACK_MAX,
        }

    return SimpleNamespace(
        budget_s=SET_BUDGET_S, ops=[warm[0]] + ops, warm=warm, stats=stats,
        probes=powerset_probes, setup_files=paths,
    )


def powerset_probes() -> list[Op]:
    """Known defects: a boolean membership read as 1.0, and a zero trial
    count that ends in a traceback instead of a usage error."""
    text = '{"atoms":["x1"],"elements":[{"expr":"x1","mu":true}]}'

    def run(tr):
        return tr.call("fuzzy_core.fuzzyset_from_json", API.fuzzyset_from_json, text)

    def check(fs):
        raise C.CheckFailed("fuzzy_core", '"mu": true was accepted as a number')

    def run_cli_trials(tr):
        return tr.call("cli.main", run_cli, ["verify-theorem", "1", "--trials", "0"])

    def check_cli_trials(out):
        require(out[0] == 2, "cli", f"verify-theorem --trials 0 exited {out[0]}, not 2")

    return [
        Op("readback", text, run, check, _fuzznest_error),
        Op("cli", "verify-theorem 1 --trials 0", run_cli_trials, check_cli_trials),
    ]


# ------------------------------------------------------------------ shared


def _summary(values: list[int]) -> dict:
    if not values:
        return {}
    return {"n": len(values), "p50": values[len(values) // 2],
            "p90": values[math.ceil(0.9 * len(values)) - 1], "max": values[-1]}


def _log2_histogram(values: list[int]) -> dict:
    hist: dict[str, int] = {}
    for v in values:
        lo = 2 ** int(math.log2(max(v, 1)))
        key = f"{lo}-{2 * lo - 1}"
        hist[key] = hist.get(key, 0) + 1
    return hist


BUILDERS = {
    "codec": build_codec,
    "superstructure": build_superstructure,
    "powerset": build_powerset,
}


def build(name: str, seed: int, workdir: Path) -> SimpleNamespace:
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir)
